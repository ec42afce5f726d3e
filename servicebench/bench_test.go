package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
)

var (
	platOnce sync.Once
	testBP   *benchPlatform
	testPlat *platform.Platform
	platErr  error
)

func testPlatform(t *testing.T) (*benchPlatform, *platform.Platform) {
	t.Helper()
	platOnce.Do(func() { testBP, testPlat, platErr = loadPlatform() })
	if platErr != nil {
		t.Fatal(platErr)
	}
	return testBP, testPlat
}

// inputBytes serializes the first n inputs of a workload's stream in
// their wire form.
func inputBytes(t *testing.T, workload string, seed int64, n int) []byte {
	bp, _ := testPlatform(t)
	g, err := newGenerator(workload, seed, bp)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		in := g.Input(i)
		fmt.Fprintf(&b, "%d %s\n%s\n", in.Kind, in.Path, in.Body)
		if in.Cycle != nil {
			fmt.Fprintf(&b, "%s\n%s\n%s\n", in.Cycle.UpdatePath, in.Cycle.UpdateBody, in.Cycle.HorizonPath)
		}
	}
	return b.Bytes()
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a := inputBytes(t, w, 7, 40)
		b := inputBytes(t, w, 7, 40)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two runs", w)
		}
		if c := inputBytes(t, w, 8, 40); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w)
		}
	}
}

// TestColdInputsDistinct checks predict-cold's premise: no request
// repeats, so every answer is a cache miss.
func TestColdInputsDistinct(t *testing.T) {
	bp, _ := testPlatform(t)
	g, err := newGenerator(wlPredictCold, 1, bp)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	kinds := map[opKind]int{}
	for i := 0; i < 2000; i++ {
		in := g.Input(i)
		if seen[in.Path] {
			t.Fatalf("input %d repeats an earlier request", i)
		}
		seen[in.Path] = true
		kinds[in.Kind]++
	}
	if share := float64(kinds[opSelect]) / 2000; share < 0.15 || share > 0.25 {
		t.Errorf("select_fastest share %.3f, want about %.2f", share, selectShare)
	}
}

func TestSummaryPercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || !s.P99OK {
		t.Errorf("1..1000: got N=%d p50=%v p99=%v ok=%v, want 1000 500 990 true", s.N, s.P50, s.P99, s.P99OK)
	}
	if s.TailQ != 0.99 || s.Tail != 990 || s.Beyond != 10 {
		t.Errorf("1..1000: tail p%v=%v with %d beyond, want p99=990 with 10 beyond", 100*s.TailQ, s.Tail, s.Beyond)
	}
	s = summarize(xs[:999]) // 999 samples: only 9 lie beyond the p99 rank
	if s.P99OK || s.TailQ != 0.95 || s.Beyond < minBeyond {
		t.Errorf("999 samples: p99 ok=%v, tail p%v with %d beyond; want p99 unsupported, p95 reported", s.P99OK, 100*s.TailQ, s.Beyond)
	}
	xs = make([]float64, 20000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if s = summarize(xs); s.TailQ != 0.999 || s.Beyond != 20 {
		t.Errorf("20000 samples: tail p%v with %d beyond, want p99.9 with 20", 100*s.TailQ, s.Beyond)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
}

// phaseOf builds a measured phase of one-second windows: window w holds
// n samples of latency k*scale[w] ms, k = 1..n, spread over the second.
func phaseOf(n int, scale []float64) (lat, at []float64) {
	for w, f := range scale {
		for k := 1; k <= n; k++ {
			lat = append(lat, float64(k)*f)
			at = append(at, float64(w)+(float64(k)-0.5)/float64(n))
		}
	}
	return lat, at
}

func TestQuietMetrics(t *testing.T) {
	// Six windows; the stolen ones answer ten times slower and burn more
	// server CPU, and move nothing. A quarter of the windows, rounded
	// up: the two quietest, which hold 1200 samples — enough — and no
	// other window is within quietSlack.
	stolen := []float64{0.3, 0, 0.2, 0, 0.4, 0.1}
	scale := []float64{10, 1, 10, 1, 10, 10}
	lat, at := phaseOf(600, scale)
	q := quietMetrics(lat, at, samples{stolen: stolen, cpuUS: []float64{9000, 1000, 9000, 1000, 9000, 9000}})
	wantTput := 600 / (600 * 601 / 2 / 1e3)
	if q.Windows != 2 || q.MaxStolen != 0 || q.Samples != 1200 || math.Abs(q.Throughput-wantTput) > 1e-9 || q.P50 != 300 || q.P90 != 540 || q.P99 != 594 || math.Abs(q.CPUPerOp-2000.0/1200) > 1e-12 {
		t.Errorf("got %+v, want 2 windows with nothing stolen, 1200 samples, %.4f ops/s, p50 300, p90 540, p99 594, %.4f CPU us/op", q, wantTput, 2000.0/1200)
	}
	// 300 samples a window: the quiet windows grow, quietest first,
	// until they hold 1000, taking in stolen shares 0.1 and 0.2.
	lat, at = phaseOf(300, scale)
	if q = quietMetrics(lat, at, samples{stolen: stolen}); q.Windows != 4 || q.MaxStolen != 0.2 || q.Samples != 1200 {
		t.Errorf("300 a window: got %+v, want 4 windows up to stolen share 0.2, 1200 samples", q)
	}
	// Windows within quietSlack of the quietest quarter count too.
	lat, at = phaseOf(1000, []float64{1, 1, 1, 1, 1, 1})
	if q = quietMetrics(lat, at, samples{stolen: []float64{0.01, 0, 0.015, 0.05, 0.03, 0}}); q.Windows != 4 || q.MaxStolen != 0.015 || q.Samples != 4000 {
		t.Errorf("slack: got %+v, want 4 windows up to stolen share 0.015, 4000 samples", q)
	}
	// A window that lost half its time to steal answered twice as slow
	// on average; throughput counts only the half the machine was given.
	// Percentiles stay as measured.
	lat, at = phaseOf(1000, []float64{2})
	q = quietMetrics(lat, at, samples{stolen: []float64{0.5}})
	if wantTput = 1000 / (1000 * 1001 / 2 / 1e3); q.P50 != 1000 || q.P99 != 1980 || math.Abs(q.Throughput-wantTput) > 1e-9 {
		t.Errorf("half stolen: got %+v, want p50 1000, p99 1980, %.4f ops/s", q, wantTput)
	}
	// Without per-second figures the phase is one window, uncorrected.
	lat, at = phaseOf(1000, []float64{1})
	if q = quietMetrics(lat, at, samples{}); q.Windows != 1 || q.Samples != 1000 || q.P50 != 500 || q.P99 != 990 || q.CPUPerOp != 0 {
		t.Errorf("no per-second figures: got %+v, want one window of 1000, p50 500, p99 990", q)
	}
}

func TestStolenSince(t *testing.T) {
	a := cpuTicks{busy: 1000, steal: 100}
	if got := stolenSince(a, cpuTicks{busy: 1400, steal: 200}); got != 0.25 {
		t.Errorf("100 of 400 busy ticks stolen: share %v, want 0.25", got)
	}
	if got := stolenSince(a, a); got != 0 {
		t.Errorf("no ticks: share %v, want 0", got)
	}
}

func TestLadderSelfTimes(t *testing.T) {
	self, residual := ladderSelf([]rung{{"wire", 100}, {"serve", 40}, {"cache", 30}, {"sim", 25}})
	want := []float64{60, 10, 5, 25}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("self times %v, want %v", self, want)
		}
	}
	if residual != 0 {
		t.Errorf("nested ladder residual %v, want 0", residual)
	}
	// A rung measured slower than the rung above it is not nested: its
	// negative self time is clamped and the sum overshoots.
	if _, residual = ladderSelf([]rung{{"wire", 100}, {"serve", 120}, {"cache", 30}}); math.Abs(residual-0.2) > 1e-12 {
		t.Errorf("non-nested ladder residual %v, want 0.2", residual)
	}
}

// benchmarkBound reads a metric's bound from BENCHMARK.json.
func benchmarkBound(t *testing.T, name string) float64 {
	var spec benchmarkSpec
	readSpec(t, &spec)
	for _, m := range spec.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %s", name)
	return 0
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T, spec *benchmarkSpec) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("BENCHMARK.json not beside the benchmark: %v", err)
	}
	if err := json.Unmarshal(raw, spec); err != nil {
		t.Fatal(err)
	}
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestSpecMatchesProgram(t *testing.T) {
	var spec benchmarkSpec
	readSpec(t, &spec)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestLadderSumsToWire replays predict-cold inputs against an in-process
// server on loopback and checks that the rungs are nested: their self
// times sum to the wire median within the bound on throughput_ops, the
// wall-clock metric the round trip sets.
func TestLadderSumsToWire(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 100 forecasts")
	}
	bound := benchmarkBound(t, "throughput_ops")
	bp, plat := testPlatform(t)
	reg, err := newReferenceRegistry(plat, bp)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(pilgrim.NewServer(reg, nil))
	defer srv.Close()
	wire := newWireClient(srv.URL)
	defer wire.close()
	rp, err := newReplay(bp, plat, wire, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.close()
	g, err := newGenerator(wlPredictCold, 3, bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rp.run(g.Input(i), false)
	}
	for i := 100; i < 200; i++ {
		rp.run(g.Input(i), true)
	}
	if rp.failed > 0 {
		t.Fatalf("%d replayed inputs failed: %v", rp.failed, rp.errs)
	}
	rungs := rp.tr.ladder(ladders[wlPredictCold])
	self, residual := ladderSelf(rungs)
	t.Logf("rungs %v, self times %v, residual %+.4f", rungs, self, residual)
	if residual > bound {
		t.Errorf("self times overshoot the wire median by %.1f%% (bound %.0f%%): rungs %v", 100*residual, 100*bound, rungs)
	}
	for _, r := range rungs {
		if r.Median <= 0 {
			t.Errorf("rung %s has no time", r.Name)
		}
	}
}

// TestLibraryMatchesAnalyticLoneTransfer pins the independent oracle
// the benchmark checks answers with: a lone transfer on the base epoch
// takes exactly its latency phase plus its size at the bottleneck rate.
func TestLibraryMatchesAnalyticLoneTransfer(t *testing.T) {
	bp, plat := testPlatform(t)
	reg, err := newReferenceRegistry(plat, bp)
	if err != nil {
		t.Fatal(err)
	}
	lib := newLibrary(bp, reg)
	r := newRNG(11, 9, 0)
	for i := 0; i < 50; i++ {
		in := bp.predictInput(bp.transfers(r, 1))
		if _, err := lib.answer(in); err != nil {
			t.Fatalf("transfer %v: %v", in.Transfers[0], err)
		}
	}
	// A perturbed duration is caught.
	in := bp.predictInput(bp.transfers(r, 1))
	lb, err := bp.lowerBound(in.Transfers[0])
	if err != nil {
		t.Fatal(err)
	}
	p := pilgrim.Prediction{Src: in.Transfers[0].Src, Dst: in.Transfers[0].Dst, Size: in.Transfers[0].Size, Duration: lb * 1.001}
	if _, err := bp.checkPredictions(in.Transfers, []pilgrim.Prediction{p}, true, nil); err == nil {
		t.Error("a lone transfer 0.1% slower than analytic passed the check")
	}
}
