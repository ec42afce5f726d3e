package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pilgrim/internal/platform"
)

func requireSamePlanResults(t *testing.T, ctx string, got, want []PlanResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for qi := range want {
		g, w := got[qi], want[qi]
		if (g.Err != nil) != (w.Err != nil) {
			t.Fatalf("%s: query %d: err %v, want %v", ctx, qi, g.Err, w.Err)
		}
		if w.Err != nil {
			if g.Err.Error() != w.Err.Error() {
				t.Fatalf("%s: query %d: err %q, want %q", ctx, qi, g.Err, w.Err)
			}
			continue
		}
		if len(g.Results) != len(w.Results) {
			t.Fatalf("%s: query %d: %d transfers, want %d", ctx, qi, len(g.Results), len(w.Results))
		}
		for i := range w.Results {
			if math.Float64bits(g.Results[i].Completion) != math.Float64bits(w.Results[i].Completion) ||
				math.Float64bits(g.Results[i].Duration) != math.Float64bits(w.Results[i].Duration) {
				t.Fatalf("%s: query %d transfer %d: %v/%v, want %v/%v", ctx, qi, i,
					g.Results[i].Completion, g.Results[i].Duration,
					w.Results[i].Completion, w.Results[i].Duration)
			}
		}
	}
}

// randomPlanQueries builds 1-3 plan queries of concurrent transfers and
// occasional background flows over h hosts named h0..h{h-1}.
func randomPlanQueries(rng *rand.Rand, h int) []PlanQuery {
	name := func(i int) string { return fmt.Sprintf("h%d", i) }
	pair := func() (string, string) {
		a := rng.Intn(h)
		b := rng.Intn(h - 1)
		if b >= a {
			b++
		}
		return name(a), name(b)
	}
	queries := make([]PlanQuery, 1+rng.Intn(3))
	for qi := range queries {
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			src, dst := pair()
			queries[qi].Transfers = append(queries[qi].Transfers, Transfer{
				Src: src, Dst: dst,
				Size:  math.Exp(rng.Float64()*9) * 1e4,
				Start: float64(rng.Intn(2)) * rng.Float64(),
			})
		}
		for i := 0; i < rng.Intn(3); i++ {
			src, dst := pair()
			queries[qi].Background = append(queries[qi].Background, [2]string{src, dst})
		}
	}
	return queries
}

// TestPlanDifferentialMatchesCold is the differential-vs-cold bit-identity
// property test of the fork primitives, composed the way pilgrim's
// evaluator composes them: each (member, query) cell is classified from
// the query's PlanFootprint against the member's delta, then answered by
// reusing the base result, by forking the base run's checkpoint
// (RunPlanCheckpoints, PlanCheckpoint.Fork), or by a cold RunPlan. For
// random platforms, workloads, and overlay members (bandwidth scales on
// used and unused links, latency changes, link and host failures, even
// foreign topologies), every answer must be bit-identical to a cold
// RunPlan on that member epoch.
func TestPlanDifferentialMatchesCold(t *testing.T) {
	var reused, forked, cold, repriced int
	for seed := int64(1); seed <= 45; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hosts := 4 + rng.Intn(4)
		plat := buildRandomPlatform(t, rng, hosts)
		base := plat.Snapshot()
		cfg := DefaultConfig()
		queries := randomPlanQueries(rng, hosts)

		members := make([]*platform.Snapshot, 1+rng.Intn(4))
		for mi := range members {
			if rng.Float64() < 0.08 {
				// Foreign topology: same host names, different compile.
				members[mi] = buildRandomPlatform(t, rng, hosts).Snapshot()
				continue
			}
			var links []platform.OverlayLink
			var hostsOv []platform.OverlayHost
			seen := map[int32]bool{}
			for i := 0; i < 1+rng.Intn(4); i++ {
				li := int32(rng.Intn(base.NumLinks()))
				if seen[li] {
					continue
				}
				seen[li] = true
				u := platform.OverlayLink{Link: li, Bandwidth: math.NaN(), Latency: math.NaN()}
				switch rng.Intn(6) {
				case 0:
					u.Bandwidth = 0 // fail the link
				case 1, 2, 3:
					u.Bandwidth = base.LinkBandwidth(li) * (0.3 + rng.Float64())
				case 4:
					u.Latency = rng.Float64() * 1e-3
				default:
					u.Bandwidth = base.LinkBandwidth(li) * (0.3 + rng.Float64())
					u.Latency = rng.Float64() * 1e-3
				}
				links = append(links, u)
			}
			if rng.Float64() < 0.15 {
				hostsOv = append(hostsOv, platform.OverlayHost{Host: int32(rng.Intn(hosts)), Speed: 0})
			}
			m, err := base.ApplyOverlay(links, hostsOv, "fork member")
			if err != nil {
				t.Fatalf("seed %d: overlay: %v", seed, err)
			}
			members[mi] = m
		}

		deltas := make([]*platform.EpochDelta, len(members))
		for mi, m := range members {
			deltas[mi], _ = platform.DiffSnapshots(base, m) // nil on topology mismatch -> cold
		}
		footprints := make([]Footprint, len(queries))
		classes := make([][]DeltaClass, len(queries))
		want := make([]bool, len(queries))
		for qi := range queries {
			footprints[qi] = PlanFootprint(base, &queries[qi])
			classes[qi] = make([]DeltaClass, len(members))
			for mi := range members {
				classes[qi][mi] = footprints[qi].Classify(deltas[mi])
				want[qi] = want[qi] || classes[qi][mi] == ClassFork
			}
		}

		baseOut, cks := RunPlanCheckpoints(base, cfg, queries, want)
		requireSamePlanResults(t, fmt.Sprintf("seed %d base", seed),
			baseOut, RunPlan(base, cfg, queries))
		for mi, m := range members {
			coldOut := RunPlan(m, cfg, queries)
			for qi := range queries {
				var got PlanResult
				answered := false
				switch classes[qi][mi] {
				case ClassReuse:
					// Footprint misses the delta: the base answer (or base
					// setup error) is the member's.
					got, answered = baseOut[qi], true
					reused++
				case ClassFork:
					// A nil checkpoint means the base setup failed; the
					// member's bandwidths differ, so it runs cold.
					if cks[qi] != nil {
						if got, answered = cks[qi].Fork(m); answered {
							forked++
							repriced += footprints[qi].TouchedBw(deltas[mi])
						}
					}
				}
				if !answered {
					got = RunPlan(m, cfg, queries[qi:qi+1])[0]
					cold++
				}
				requireSamePlanResults(t, fmt.Sprintf("seed %d member %d query %d", seed, mi, qi),
					[]PlanResult{got}, coldOut[qi:qi+1])
			}
		}
	}
	// The sweep must exercise all three strategies, or the test proves
	// less than it claims.
	if reused == 0 || forked == 0 || cold == 0 {
		t.Fatalf("strategy coverage hole: reused=%d forked=%d cold=%d", reused, forked, cold)
	}
	if repriced == 0 {
		t.Fatalf("forks re-priced no constraints: forked=%d", forked)
	}
}

// TestCheckpointMidRunContinuation checkpoints an engine in the middle of
// its event loop and verifies the original and a restored copy finish
// bit-identically — the full-state-capture property (arena, heap, lazy
// progress accounting, flow rates, completion ledger).
func TestCheckpointMidRunContinuation(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed * 7))
		hosts := 4 + rng.Intn(3)
		plat := buildRandomPlatform(t, rng, hosts)
		snap := plat.Snapshot()
		cfg := DefaultConfig()
		q := randomPlanQueries(rng, hosts)[0]

		e := NewEngineSnapshot(snap, cfg)
		ids, err := setupPlanQuery(e, &q)
		if err != nil {
			continue // routed over nothing usable; other seeds cover this
		}
		steps := rng.Intn(6)
		for s := 0; s < steps; s++ {
			if _, ok, err := e.Step(); err != nil || !ok {
				break
			}
		}
		ck, err := e.Checkpoint()
		if err != nil {
			t.Fatalf("seed %d: checkpoint: %v", seed, err)
		}
		want := finishPlanQuery(e, &q, ids)

		r := NewEngineSnapshot(snap, cfg)
		if err := r.RestoreCheckpoint(ck); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		got := finishPlanQuery(r, &q, ids)
		requireSamePlanResults(t, fmt.Sprintf("seed %d fresh-restore", seed),
			[]PlanResult{got}, []PlanResult{want})

		// Restoring into a pooled, previously used engine must behave the
		// same (arena resizing, recycled struct neutralization).
		p := AcquireEngineSnapshot(snap, cfg)
		if err := p.RestoreCheckpoint(ck); err != nil {
			t.Fatalf("seed %d: pooled restore: %v", seed, err)
		}
		got2 := finishPlanQuery(p, &q, ids)
		ReleaseEngine(p)
		requireSamePlanResults(t, fmt.Sprintf("seed %d pooled-restore", seed),
			[]PlanResult{got2}, []PlanResult{want})
	}
}

func TestCheckpointRejectsCallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	plat := buildRandomPlatform(t, rng, 3)
	e := NewEngineSnapshot(plat.Snapshot(), DefaultConfig())
	if _, err := e.AddComm("h0", "h1", 1e6, 0, func(float64) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint with live callback accepted")
	}
}

func TestRestoreRejectsIncompatible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	plat := buildRandomPlatform(t, rng, 3)
	e := NewEngineSnapshot(plat.Snapshot(), DefaultConfig())
	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	other := NewEngineSnapshot(buildRandomPlatform(t, rng, 3).Snapshot(), DefaultConfig())
	if err := other.RestoreCheckpoint(ck); err == nil {
		t.Fatal("cross-topology restore accepted")
	}
	cfg2 := DefaultConfig()
	cfg2.TCPGamma = 0
	diffCfg := NewEngineSnapshot(plat.Snapshot(), cfg2)
	if err := diffCfg.RestoreCheckpoint(ck); err == nil {
		t.Fatal("cross-config restore accepted")
	}
}
