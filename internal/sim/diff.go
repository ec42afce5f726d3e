package sim

import (
	"pilgrim/internal/platform"
)

// Differential plan evaluation: one base run + N cheap deltas. Scenario
// sweeps ask the same queries against many epochs that differ from a
// shared base by a handful of mutations. Instead of simulating every
// (epoch, query) cell cold, the evaluator (pilgrim.Evaluator) computes
// each query's resource footprint once (PlanFootprint), classifies it
// against each epoch's delta (Classify), and answers:
//
//   - ClassReuse — the footprint misses the delta entirely: the base
//     result is provably bit-identical, no simulation at all;
//   - ClassFork  — only bandwidths of footprint links changed: restore
//     the base engine's pre-run checkpoint into an engine bound to the
//     derived epoch and replay (activations read capacities lazily from
//     the new epoch, so only the disturbed flow components re-solve);
//   - ClassCold  — a latency or availability change touches the
//     footprint (schedule-time state the checkpoint already baked in),
//     or the epochs don't share a topology: full cold simulation.
//
// All three produce bit-identical results to a cold run; they differ only
// in cost.

// DeltaClass is the answer strategy chosen for one (query, epoch) cell.
type DeltaClass uint8

const (
	// ClassReuse reuses the base result outright.
	ClassReuse DeltaClass = iota
	// ClassFork replays from the base engine's pre-run checkpoint.
	ClassFork
	// ClassCold runs a full cold simulation.
	ClassCold
)

// Footprint is the set of platform resources one plan query touches: the
// links of every transfer and background-flow route, and the endpoint
// hosts. Footprints are computed against the base epoch; routes are
// topology-level, so the same footprint is valid on every derived epoch.
type Footprint struct {
	links []bool
	hosts []bool
	ok    bool
}

// PlanFootprint resolves the query's routes against snap and marks every
// touched resource. A query whose routes cannot be resolved (unknown host,
// unroutable pair) yields an invalid footprint that classifies as cold.
func PlanFootprint(snap *platform.Snapshot, q *PlanQuery) Footprint {
	f := Footprint{
		links: make([]bool, snap.NumLinks()),
		hosts: make([]bool, snap.NumHosts()),
		ok:    true,
	}
	mark := func(src, dst string) bool {
		if hi, ok := snap.HostIndex(src); ok {
			f.hosts[hi] = true
		}
		if hi, ok := snap.HostIndex(dst); ok {
			f.hosts[hi] = true
		}
		route, err := snap.Route(src, dst)
		if err != nil {
			return false
		}
		for _, ref := range route.Refs {
			f.links[ref.LinkIndex()] = true
		}
		return true
	}
	for _, bg := range q.Background {
		if !mark(bg[0], bg[1]) {
			f.ok = false
			return f
		}
	}
	for _, t := range q.Transfers {
		if !mark(t.Src, t.Dst) {
			f.ok = false
			return f
		}
	}
	return f
}

// Classify chooses the answer strategy for this footprint against one
// epoch delta (nil means "unknown delta" and classifies cold).
//
// Latency and availability changes on footprint resources force a cold
// run: latencies are baked into scheduled activities (latency phase,
// RTT weight, window bound) and availability gates schedule-time
// admission, so a checkpoint captured on the base epoch is stale for
// them. Host speed changes never matter to transfer plans — plan queries
// schedule no computation. Bandwidth is read lazily at activation, so
// bandwidth-only overlap forks; no overlap at all reuses.
func (f *Footprint) Classify(d *platform.EpochDelta) DeltaClass {
	if !f.ok || d == nil {
		return ClassCold
	}
	for _, li := range d.AvailLinks {
		if f.links[li] {
			return ClassCold
		}
	}
	for _, li := range d.LatLinks {
		if f.links[li] {
			return ClassCold
		}
	}
	for _, hi := range d.AvailHosts {
		if f.hosts[hi] {
			return ClassCold
		}
	}
	for _, li := range d.BwLinks {
		if f.links[li] {
			return ClassFork
		}
	}
	return ClassReuse
}

// TouchedBw counts the delta's bandwidth-changed links the footprint
// crosses — the constraints a fork will re-price.
func (f *Footprint) TouchedBw(d *platform.EpochDelta) int {
	if !f.ok || d == nil {
		return 0
	}
	n := 0
	for _, li := range d.BwLinks {
		if f.links[li] {
			n++
		}
	}
	return n
}

// PlanCheckpoint is a C0 capture of one plan query: the workload scheduled
// on its base epoch, the event loop not yet started, no constraint
// materialized. It is the warm-start handle of differential evaluation:
// Fork replays the captured plan on any sibling epoch of the same
// topology, skipping route resolution and activity scheduling, and the
// lazily-created constraints read the sibling's capacities directly.
type PlanCheckpoint struct {
	ck  *EngineCheckpoint
	q   PlanQuery
	ids []ActivityID
}

// CheckpointPlan schedules the query on a pooled engine bound to snap and
// captures its C0 checkpoint without running the event loop — the cheap
// way to obtain a fork handle when the base answer itself is already known
// (e.g. cached). Returns nil when the query cannot be scheduled on snap.
func CheckpointPlan(snap *platform.Snapshot, cfg Config, q PlanQuery) *PlanCheckpoint {
	e := AcquireEngineSnapshot(snap, cfg)
	defer ReleaseEngine(e)
	ids, err := setupPlanQuery(e, &q)
	if err != nil {
		return nil
	}
	ck, err := e.Checkpoint()
	if err != nil {
		return nil
	}
	return &PlanCheckpoint{ck: ck, q: q, ids: ids}
}

// RunPlanCheckpoints is RunPlan with fork handles: queries whose want flag
// is set additionally capture a C0 checkpoint before running (nil handle
// when the query's setup failed). A nil want degenerates to RunPlan.
func RunPlanCheckpoints(snap *platform.Snapshot, cfg Config, queries []PlanQuery, want []bool) ([]PlanResult, []*PlanCheckpoint) {
	out := make([]PlanResult, len(queries))
	cks := make([]*PlanCheckpoint, len(queries))
	if len(queries) == 0 {
		return out, cks
	}
	e := AcquireEngineSnapshot(snap, cfg)
	defer ReleaseEngine(e)
	for qi := range queries {
		if qi > 0 {
			e.Reset()
		}
		q := &queries[qi]
		ids, err := setupPlanQuery(e, q)
		if err != nil {
			out[qi] = PlanResult{Err: err}
			continue
		}
		if want != nil && want[qi] {
			// setupPlanQuery schedules with nil callbacks, so Checkpoint
			// cannot fail here.
			if ck, err := e.Checkpoint(); err == nil {
				cks[qi] = &PlanCheckpoint{ck: ck, q: *q, ids: ids}
			}
		}
		out[qi] = finishPlanQuery(e, q, ids)
	}
	return out, cks
}

// Fork replays the captured plan on snap (an epoch of the checkpoint's
// topology) and returns the result. ok is false when the fork machinery
// itself cannot run here (incompatible epoch) — the caller should fall
// back to a cold run. Query-level failures surface inside the PlanResult.
func (pc *PlanCheckpoint) Fork(snap *platform.Snapshot) (PlanResult, bool) {
	fe, err := ForkFrom(pc.ck, snap)
	if err != nil {
		return PlanResult{}, false
	}
	res := finishPlanQuery(fe, &pc.q, pc.ids)
	ReleaseEngine(fe)
	return res, true
}
