// Command servicebench is the pilgrim service benchmark: it starts the
// tree's own pilgrimd on loopback with the g5k_test platform, drives one
// seeded closed-loop workload at it over real HTTP, checks every answer,
// and prints the end-to-end metrics — or, with --trace 1, replays the
// same inputs through each layer's public functions and prints the
// per-layer metrics. See README.md; run it through run.sh, which builds
// both binaries from the checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"pilgrim/internal/platform"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd is what a caller of pilgrimd sees (--trace 0).
var endToEnd = []metricDef{
	{"throughput_ops", "ops/s"},
	{"server_cpu_us_per_op", "us"},
	{"server_rss_peak_mb", "MB"},
	{"setup_s", "s"},
	{"horizon_err_log2_p50", "log2"},
}

// perLayer is what the traced run reports (--trace 1). A layer the
// workload's requests never reach reports 0.
var perLayer = []metricDef{
	{"wire.self_us", "us"},
	{"pilgrim.serve_hit_us", "us"},
	{"pilgrim.serve_allocs_per_op", "count"},
	{"pilgrim.serve_miss_self_us", "us"},
	{"pilgrim.cache_hit_us", "us"},
	{"pilgrim.cache_miss_self_us", "us"},
	{"pilgrim.cache_hit_ratio", "ratio"},
	{"pilgrim.coalesced_share", "ratio"},
	{"pilgrim.predict_self_us", "us"},
	{"pilgrim.select_fastest_us", "us"},
	{"pilgrim.workers_max_busy", "count"},
	{"pilgrim.evaluate_us", "us"},
	{"pilgrim.evaluate_reuse_share", "ratio"},
	{"pilgrim.evaluate_fork_share", "ratio"},
	{"pilgrim.evaluate_cold_share", "ratio"},
	{"pilgrim.overlay_hit_ratio", "ratio"},
	{"pilgrim.observe_us", "us"},
	{"pilgrim.get_at_us", "us"},
	{"scenario.resolve_us", "us"},
	{"platform.route_us", "us"},
	{"platform.overlay_us", "us"},
	{"platform.timeline_append_us", "us"},
	{"sim.run_us", "us"},
	{"sim.new_epoch_us", "us"},
	{"sim.resharings_per_op", "count"},
	{"sim.vars_touched_per_resharing", "count"},
	{"sim.checkpoint_us", "us"},
	{"sim.fork_us", "us"},
	{"flow.solve_us", "us"},
	{"flow.solve_vars", "count"},
	{"flow.solve_cnsts", "count"},
	{"nws.observe_us", "us"},
	{"nws.forecast_us", "us"},
	{"store.append_us", "us"},
	{"store.compact_us", "us"},
	{"store.compactions", "count"},
	{"trace.overhead_us", "us"},
}

// params sizes a workload's phases, in inputs. Warm-up fills pools,
// caches and lazy set-up before timing; the digest covers the first
// digestN measured inputs; the traced replay warms with traceWarm inputs
// (observe-forecast must replay its whole warm-up: its answers depend
// on every earlier observation).
type params struct {
	clients, warm, digestN, traceWarm int
}

// loopClients is the closed loop's client count on every workload. One
// caller leaves the second of a two-CPU machine's cores to garbage
// collection and the benchmark's own checking, so latency measures the
// server, not the scheduler; observe-forecast needs one anyway to keep
// its cycles in order.
const loopClients = 1

func workloadParams(w string) params {
	switch w {
	case wlPredictHot:
		return params{clients: loopClients, warm: 2000, digestN: 256, traceWarm: 64}
	case wlPredictCold:
		return params{clients: loopClients, warm: 400, digestN: 256, traceWarm: 64}
	case wlEvaluateWhatIf:
		return params{clients: loopClients, warm: 60, digestN: 48, traceWarm: 16}
	default:
		return params{clients: loopClients, warm: 300, digestN: 128, traceWarm: 300}
	}
}

// The forecast-skill guard scores the first horizonCycles cycles of each
// of horizonSeries observe-forecast series.
const (
	horizonCycles = 128
	horizonSeries = 16
)

// setupRuns is how many times set-up is measured; setup_s is the median.
const setupRuns = 7

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runState collects what a run measured and found wrong.
type runState struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func (s *runState) problem(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	bin := flag.String("pilgrimd", ".bench_build/bin/pilgrimd", "pilgrimd binary")
	workRoot := flag.String("workdir", ".bench_build/runs", "directory for logs, data directories and traces")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servicebench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// The checking between requests allocates; collecting less often
	// keeps the benchmark's own garbage collector off the server's CPUs.
	debug.SetGCPercent(400)
	res, err := execute(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *workRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servicebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servicebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// execute runs one workload and returns the result line. Errors are
// failures of the harness itself (no pilgrimd, no platform), not of the
// program under test, which show as failed ops and correct=false.
func execute(workload string, seed int64, dur time.Duration, traced bool, bin, workRoot string) (*result, error) {
	if !slices.Contains(workloads, workload) {
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloads, ", "))
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("pilgrimd binary: %w", err)
	}
	bp, plat, err := loadPlatform()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(workRoot, fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &runState{values: map[string]float64{}}
	if traced {
		err = runTraced(st, workload, seed, dur, bp, plat, bin, dir, workRoot)
	} else {
		err = runMeasured(st, workload, seed, dur, bp, plat, bin, dir)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := &result{Correct: len(st.problems) == 0 && st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := st.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, p := range st.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	if res.Correct {
		// Keep logs and data only when something went wrong.
		_ = os.RemoveAll(dir)
	} else {
		fmt.Fprintln(os.Stderr, "logs kept in", dir)
	}
	return res, nil
}

func newClients(base string, n int) []*wireClient {
	cs := make([]*wireClient, n)
	for i := range cs {
		cs[i] = newWireClient(base)
	}
	return cs
}

func closeClients(cs []*wireClient) {
	for _, c := range cs {
		c.close()
	}
}

// digestRange is which inputs' answers a run keeps: the first digestN
// measured inputs, and for observe-forecast every cycle from 0 (the
// forecast-skill guard scores the first cycles).
func digestRange(workload string, p params) *recorder {
	if workload == wlObserveForecast {
		n := max(p.warm+p.digestN, horizonCycles+horizonAhead/cycleStep)
		return &recorder{from: 0, flats: make([][]float64, n)}
	}
	return &recorder{from: p.warm, flats: make([][]float64, p.digestN)}
}

// measuredPhase is the untraced closed loop shared by both modes:
// warm-up, then dur of measurement with the daemon's CPU time and
// cache_stats read around it.
type measuredPhase struct {
	ph    phase
	delta statsDelta
	cpu   time.Duration
	rss   float64
	secs  samples // per second: the stolen share and the daemon's CPU time
}

func runPhase(st *runState, d *daemon, workload string, seed int64, dur time.Duration, bp *benchPlatform, rec *recorder) (*measuredPhase, error) {
	p := workloadParams(workload)
	gen, err := newGenerator(workload, seed, bp)
	if err != nil {
		return nil, err
	}
	exact := exactCheck(workload)
	clients := newClients(d.base, p.clients)
	defer closeClients(clients)
	warm := closedLoop(clients, gen, bp, 0, p.warm, 0, exact, rec)
	st.attempted += warm.ok + warm.failed
	st.failed += warm.failed
	for _, e := range warm.errs {
		fmt.Fprintln(os.Stderr, "warm-up failure:", e)
	}
	m := &measuredPhase{}
	ctx := context.Background()
	before, err := d.stats(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	sampler := startSampler(d)
	m.ph = closedLoop(clients, gen, bp, p.warm, 0, dur, exact, rec)
	m.secs = sampler.stop()
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	after, err := d.stats(ctx)
	if err != nil {
		return nil, err
	}
	m.cpu = cpu1 - cpu0
	m.delta = delta(before, after)
	if m.rss, err = d.rssPeakMB(); err != nil {
		return nil, err
	}
	st.attempted += m.ph.ok + m.ph.failed
	st.failed += m.ph.failed
	for _, e := range m.ph.errs {
		fmt.Fprintln(os.Stderr, "failure:", e)
	}
	selfCheck(st, workload, m)
	return m, nil
}

// exactCheck reports whether the workload's answers are on the base
// epoch, where a lone transfer's duration is known analytically.
func exactCheck(workload string) bool {
	return workload == wlPredictCold || workload == wlPredictHot
}

// selfCheck fails the run when the workload stopped exercising the
// layer it exists for, judged from the server's own counters over the
// measured phase.
func selfCheck(st *runState, workload string, m *measuredPhase) {
	d := m.delta
	hit := ratio(d.hits, d.lookups())
	switch workload {
	case wlPredictHot:
		if hit < 0.99 {
			st.problem("predict-hot: cache hit ratio %.4f < 0.99 after warm-up", hit)
		}
	case wlPredictCold:
		if hit > 0.01 {
			st.problem("predict-cold: cache hit ratio %.4f > 0.01", hit)
		}
	case wlEvaluateWhatIf:
		if d.forkReused == 0 || d.forkRuns == 0 || d.forkCold == 0 {
			st.problem("evaluate-whatif: differential tiers reuse=%d fork=%d cold=%d, all must be nonzero", d.forkReused, d.forkRuns, d.forkCold)
		}
	case wlObserveForecast:
		if sent := uint64(m.ph.ok + m.ph.failed); d.walAppends != sent {
			st.problem("observe-forecast: %d WAL records appended for %d observation batches sent", d.walAppends, sent)
		}
	}
	fmt.Fprintf(os.Stderr, "server counters over the measured phase: hits=%d misses=%d coalesced=%d fork reuse/fork/cold=%d/%d/%d overlays hit/miss=%d/%d wal appends=%d compactions=%d\n",
		d.hits, d.misses, d.coalesced, d.forkReused, d.forkRuns, d.forkCold, d.overlayHits, d.overlayMisses, d.walAppends, d.walCompactions)
}

// runMeasured is the untraced run: set-up measured setupRuns times, the
// closed loop, then the answers checked against the library.
func runMeasured(st *runState, workload string, seed int64, dur time.Duration, bp *benchPlatform, plat *platform.Platform, bin, dir string) error {
	p := workloadParams(workload)
	durable := workload == wlObserveForecast
	var setups, rawSetups []float64
	var d *daemon
	defer func() { d.stop() }()
	for k := 0; k < setupRuns; k++ {
		d.stop()
		t0, tickErr := machineCPU()
		nd, took, err := startDaemon(bin, dir, fmt.Sprintf("pilgrimd-%d", k), durable)
		d = nd
		if err != nil {
			return err
		}
		// Steal removed as from the closed loop's windows.
		given := 1.0
		if t1, err := machineCPU(); tickErr == nil && err == nil {
			given = 1 - stolenSince(t0, t1)
		}
		rawSetups = append(rawSetups, took.Seconds())
		setups = append(setups, took.Seconds()*given)
	}
	rec := digestRange(workload, p)
	m, err := runPhase(st, d, workload, seed, dur, bp, rec)
	if err != nil {
		return err
	}
	d.stop()
	d = nil

	ops := m.ph.ok + m.ph.failed
	lat := summarize(append([]float64(nil), m.ph.lat...))
	q := quietMetrics(m.ph.lat, m.ph.at, m.secs)
	st.values["throughput_ops"] = q.Throughput
	wholeCPU := float64(m.cpu.Microseconds()) / float64(max(ops, 1))
	st.values["server_cpu_us_per_op"] = q.CPUPerOp
	if q.CPUPerOp == 0 {
		st.values["server_cpu_us_per_op"] = wholeCPU
	}
	st.values["server_rss_peak_mb"] = m.rss
	st.values["setup_s"] = median(setups)
	fmt.Fprintf(os.Stderr, "%s seed %d: %d clients, %d ops in %.2fs (%d failed, %.1f ops/s of wall time); whole phase: latency p50 %.4f ms, p%g %.4f ms (%d samples, %d beyond), p99 %.4f ms, stolen %s\n",
		workload, seed, p.clients, ops, m.ph.elapsed.Seconds(), m.ph.failed, float64(m.ph.ok)/m.ph.elapsed.Seconds(), lat.P50, lat.TailQ*100, lat.Tail, lat.N, lat.Beyond, lat.P99, fmtPercent(m.secs.stolen))
	fmt.Fprintf(os.Stderr, "%d quiet windows of %d (stolen up to %.1f%%): %d samples, %.1f ops/s of round-trip time with steal removed, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, server CPU %.1f us/op (whole phase %.1f); setup runs %v s, steal removed %v s\n",
		q.Windows, len(m.secs.stolen), 100*q.MaxStolen, q.Samples, q.Throughput, q.P50, q.P90, q.P99, q.CPUPerOp, wholeCPU, fmtList(rawSetups), fmtList(setups))

	// The same inputs through the library must give bit-identical answers.
	gen, err := newGenerator(workload, seed, bp)
	if err != nil {
		return err
	}
	flats, err := libraryReplay(gen, bp, plat, rec)
	if err != nil {
		return err
	}
	compareFlats(st, "library", rec, flats, p.warm+p.digestN)
	printDigest(workload, rec)
	return horizonMetric(st, workload, seed, bp, plat, flats)
}

// printDigest reports the digest of the first digestN measured answers,
// which the traced run of the same seed reproduces.
func printDigest(workload string, rec *recorder) {
	p := workloadParams(workload)
	fmt.Fprintf(os.Stderr, "answer digest %016x over inputs [%d, %d)\n", digest(measuredFlats(rec, p)), p.warm, p.warm+p.digestN)
}

// measuredFlats is the recorded answers of the first digestN measured
// inputs.
func measuredFlats(rec *recorder, p params) [][]float64 {
	return rec.flats[p.warm-rec.from : p.warm-rec.from+p.digestN]
}

// libraryReplay answers the recorded input range of gen's stream
// through the library on a fresh registry. observe-forecast replays
// every cycle from 0.
func libraryReplay(gen *generator, bp *benchPlatform, plat *platform.Platform, rec *recorder) ([][]float64, error) {
	reg, err := newReferenceRegistry(plat, bp)
	if err != nil {
		return nil, err
	}
	lib := newLibrary(bp, reg)
	flats := make([][]float64, len(rec.flats))
	for i := rec.from; i < rec.from+len(rec.flats); i++ {
		flat, err := lib.answer(gen.Input(i))
		if err != nil {
			flat = nil
			fmt.Fprintf(os.Stderr, "library answer for input %d: %v\n", i, err)
		}
		flats[i-rec.from] = flat
	}
	return flats, nil
}

// compareFlats counts every recorded answer that differs from the
// reference as a failed op. Inputs before index reached must have been
// answered; later ones count only if the run got to them.
func compareFlats(st *runState, what string, rec *recorder, ref [][]float64, reached int) {
	bad := 0
	for i, f := range rec.flats {
		if f == nil && rec.from+i >= reached {
			continue
		}
		if f == nil || ref[i] == nil || !sameFlat(f, ref[i]) {
			bad++
			if bad <= 3 {
				fmt.Fprintf(os.Stderr, "answer to input %d differs from the %s answer\n", rec.from+i, what)
			}
		}
	}
	if bad > 0 {
		st.failed += bad
		st.problem("%d answers differ from the %s answers", bad, what)
	}
}

// horizonMetric sets horizon_err_log2_p50 from the library's answers to
// the seed's horizonSeries observe-forecast series, the first
// horizonCycles cycles of each pooled. Series 0 is the one
// observe-forecast sends: on that workload its answers are the ones just
// compared with the wire (bit-identical over every cycle the run
// reached). The other series, and series 0 on the other workloads, are
// replayed through the library, so for one seed every workload reports
// the same value — a guard on forecast behaviour that repeats exactly.
// Pooling several queries and link series keeps the value from hinging
// on one seed's choice of links.
func horizonMetric(st *runState, workload string, seed int64, bp *benchPlatform, plat *platform.Platform, flats [][]float64) error {
	var errs []float64
	for k := uint64(0); k < horizonSeries; k++ {
		series := flats
		if k > 0 || workload != wlObserveForecast {
			obs := &recorder{from: 0, flats: make([][]float64, horizonCycles+horizonAhead/cycleStep)}
			var err error
			if series, err = libraryReplay(observeSeries(seed, k, bp), bp, plat, obs); err != nil {
				return err
			}
		}
		e, err := horizonErrors(series)
		if err != nil {
			st.problem("horizon error of series %d: %v", k, err)
		}
		errs = append(errs, e...)
	}
	st.values["horizon_err_log2_p50"] = median(errs)
	return nil
}

// fmtPercent prints shares as whole percentages.
func fmtPercent(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.0f", 100*x)
	}
	return "[" + strings.Join(parts, " ") + "]%"
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
