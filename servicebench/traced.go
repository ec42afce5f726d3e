package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pilgrim/internal/platform"
)

// runTraced is the --trace 1 run. Phase A is the untraced closed loop on
// one daemon: it yields the server's counters (hit ratios, differential
// tiers, WAL compactions), the untraced median latency and the answer
// digest. Phase B starts a fresh daemon and replays the same seeded
// inputs sequentially, timing each layer call; its wire answers must
// match phase A's digest and the library's answers bit for bit.
func runTraced(st *runState, workload string, seed int64, dur time.Duration, bp *benchPlatform, plat *platform.Platform, bin, dir, workRoot string) error {
	p := workloadParams(workload)
	durable := workload == wlObserveForecast

	d, _, err := startDaemon(bin, dir, "pilgrimd-untraced", durable)
	if err != nil {
		return err
	}
	rec := digestRange(workload, p)
	m, err := runPhase(st, d, workload, seed, dur, bp, rec)
	d.stop()
	if err != nil {
		return err
	}
	untracedP50 := median(m.ph.lat)
	printDigest(workload, rec)

	d, _, err = startDaemon(bin, dir, "pilgrimd-traced", durable)
	if err != nil {
		return err
	}
	defer d.stop()
	wire := newWireClient(d.base)
	defer wire.close()
	rp, err := newReplay(bp, plat, wire, filepath.Join(dir, "replay"), durable)
	if err != nil {
		return err
	}
	defer rp.close()
	gen, err := newGenerator(workload, seed, bp)
	if err != nil {
		return err
	}
	for i := 0; i < p.traceWarm; i++ {
		rp.run(gen.Input(i), false)
	}
	for i := p.warm; i < p.warm+p.digestN; i++ {
		rp.run(gen.Input(i), true)
	}
	// The next digestN inputs, sequential and wire-only: the untraced
	// baseline the tracing overhead is measured against. (Phase A's
	// closed loop runs several clients, so its latency includes queueing
	// the sequential replay never sees.)
	seq := closedLoop([]*wireClient{wire}, gen, bp, p.warm+p.digestN, p.digestN, 0, exactCheck(workload), nil)
	st.attempted += p.traceWarm + p.digestN + seq.ok + seq.failed
	st.failed += rp.failed + seq.failed
	for _, e := range append(rp.errs, seq.errs...) {
		fmt.Fprintln(os.Stderr, "failure:", e)
	}
	traced := &recorder{from: p.warm, flats: rp.flats}
	compareFlats(st, "untraced run's", traced, measuredFlats(rec, p), p.warm+p.digestN)
	fmt.Fprintf(os.Stderr, "traced answer digest %016x over inputs [%d, %d)\n", digest(rp.flats), p.warm, p.warm+p.digestN)

	tracePath := filepath.Join(workRoot, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
	if err := rp.tr.write(tracePath); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(rp.tr.spans), tracePath)
	layerMetrics(st, workload, rp, m, median(seq.lat), untracedP50)
	return nil
}

// ladders name each workload's rungs, outermost first; each rung's call
// contains the work of the rungs below it.
var ladders = map[string][]string{
	wlPredictHot:      {"wire", "pilgrim.serve", "pilgrim.cache"},
	wlPredictCold:     {"wire", "pilgrim.serve", "pilgrim.cache", "pilgrim.predict", "sim.run"},
	wlEvaluateWhatIf:  {"wire", "pilgrim.serve", "pilgrim.evaluate"},
	wlObserveForecast: {"wire", "pilgrim.serve", "pilgrim.cache", "pilgrim.predict", "sim.run"},
}

// ladder returns the rungs' medians over the inputs that called every
// rung, each input's spans of one name summed.
func (t *tracer) ladder(names []string) []rung {
	sums := map[int32]map[string]float64{}
	for _, s := range t.spans {
		if sums[s.Req] == nil {
			sums[s.Req] = map[string]float64{}
		}
		sums[s.Req][s.Name] += float64(s.End-s.Start) / 1e3
	}
	cols := make([][]float64, len(names))
	for _, byName := range sums {
		complete := true
		for _, n := range names {
			if _, ok := byName[n]; !ok {
				complete = false
			}
		}
		if !complete {
			continue
		}
		for i, n := range names {
			cols[i] = append(cols[i], byName[n])
		}
	}
	out := make([]rung, len(names))
	for i, n := range names {
		out[i] = rung{Name: n, Median: median(cols[i])}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }

// layerMetrics derives every per-layer metric from the spans, the
// replay's counters and the untraced phase's server counters.
func layerMetrics(st *runState, workload string, rp *replay, m *measuredPhase, sequentialMs, closedLoopMs float64) {
	tr := rp.tr
	v := st.values
	each := func(name string) float64 { return median(tr.each(name)) }

	rungs := tr.ladder(ladders[workload])
	self, residual := ladderSelf(rungs)
	selfOf := map[string]float64{}
	for i, r := range rungs {
		selfOf[r.Name] = self[i]
	}
	var b strings.Builder
	for i, r := range rungs {
		fmt.Fprintf(&b, " %s %.1fus (self %.1fus)", r.Name, r.Median, self[i])
	}
	fmt.Fprintf(os.Stderr, "ladder:%s; self times sum to the wire median within %+.1f%%\n", b.String(), 100*residual)

	v["wire.self_us"] = selfOf["wire"]
	v["pilgrim.serve_hit_us"] = each("pilgrim.serve_hit")
	v["pilgrim.serve_allocs_per_op"] = median(rp.counters["serve_allocs"])
	v["pilgrim.serve_miss_self_us"] = 0
	if workload != wlPredictHot {
		v["pilgrim.serve_miss_self_us"] = selfOf["pilgrim.serve"]
	}
	v["pilgrim.cache_hit_us"] = each("pilgrim.cache_hit")
	v["pilgrim.cache_miss_self_us"] = 0
	if rp.cacheMisses > 0 {
		v["pilgrim.cache_miss_self_us"] = selfOf["pilgrim.cache"]
	}
	d := m.delta
	v["pilgrim.cache_hit_ratio"] = ratio(d.hits, d.lookups())
	v["pilgrim.coalesced_share"] = ratio(d.coalesced, d.lookups())
	v["pilgrim.predict_self_us"] = selfOf["pilgrim.predict"]
	v["pilgrim.select_fastest_us"] = each("pilgrim.select_fastest")
	v["pilgrim.workers_max_busy"] = float64(rp.lib.pool.Stats().MaxBusy)
	v["pilgrim.evaluate_us"] = each("pilgrim.evaluate")
	tiers := d.forkReused + d.forkRuns + d.forkCold
	v["pilgrim.evaluate_reuse_share"] = ratio(d.forkReused, tiers)
	v["pilgrim.evaluate_fork_share"] = ratio(d.forkRuns, tiers)
	v["pilgrim.evaluate_cold_share"] = ratio(d.forkCold, tiers)
	v["pilgrim.overlay_hit_ratio"] = ratio(d.overlayHits, d.overlayHits+d.overlayMisses)
	v["pilgrim.observe_us"] = each("pilgrim.observe")
	v["pilgrim.get_at_us"] = each("pilgrim.get_at")
	v["scenario.resolve_us"] = each("scenario.resolve")
	v["platform.route_us"] = each("platform.route")
	v["platform.overlay_us"] = each("platform.overlay")
	v["platform.timeline_append_us"] = each("platform.timeline_append")
	v["sim.run_us"] = each("sim.run")
	v["sim.new_epoch_us"] = each("sim.new_epoch")
	v["sim.resharings_per_op"] = mean(rp.counters["resharings"])
	v["sim.vars_touched_per_resharing"] = 0
	if r := sum(rp.counters["resharings"]); r > 0 {
		v["sim.vars_touched_per_resharing"] = sum(rp.counters["vars_touched"]) / r
	}
	v["sim.checkpoint_us"] = each("sim.checkpoint")
	v["sim.fork_us"] = each("sim.fork")
	v["flow.solve_us"] = each("flow.solve")
	v["flow.solve_vars"] = mean(rp.counters["flow_vars"])
	v["flow.solve_cnsts"] = mean(rp.counters["flow_cnsts"])
	v["nws.observe_us"] = each("nws.observe")
	v["nws.forecast_us"] = each("nws.forecast")
	v["store.append_us"] = each("store.append")
	v["store.compact_us"] = each("store.compact")
	v["store.compactions"] = float64(d.walCompactions)
	wireTraced := median(tr.perRequest("wire"))
	v["trace.overhead_us"] = wireTraced - 1e3*sequentialMs
	fmt.Fprintf(os.Stderr, "tracing overhead: traced wire median %.1fus - untraced sequential median %.1fus = %+.1fus (untraced closed-loop p50 %.1fus)\n",
		wireTraced, 1e3*sequentialMs, v["trace.overhead_us"], 1e3*closedLoopMs)
}
