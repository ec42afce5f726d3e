package pilgrim

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"pilgrim/internal/platform"
	"pilgrim/internal/scenario"
	"pilgrim/internal/sim"
	"pilgrim/internal/workflow"
)

// This file implements batched what-if evaluation: one request carries N
// scenarios (composable epoch mutations, internal/scenario) × M queries
// (predict_transfers / select_fastest / predict_workflow bodies), and the
// whole cross-product is answered in one round trip. The machinery
// exploits three layers built by earlier PRs:
//
//   - each scenario compiles to one copy-on-write epoch
//     (Snapshot.ApplyOverlay — O(changed resources), one epoch id), and
//     scenarios describing the same hypothetical network share that epoch
//     through the OverlayCache;
//   - scenarios sharing an (epoch, background) picture form one *group*,
//     and groups fan out across the WorkerPool; inside a group every
//     query runs on a single pooled engine (sim.RunPlan);
//   - every sub-simulation — a transfer set, a hypothesis — is a
//     canonical (epoch, config, query) triple deduplicated through the
//     ForecastCache, so overlapping scenarios and repeated requests pay
//     for each distinct simulation once.

// Default evaluate limits (the pilgrimd -max-scenarios and
// -max-evaluate-fanout flags).
const (
	DefaultMaxScenarios     = 64
	DefaultMaxEvaluateCells = 1024
)

// Query kinds accepted by evaluate.
const (
	QueryPredictTransfers = "predict_transfers"
	QuerySelectFastest    = "select_fastest"
	QueryPredictWorkflow  = "predict_workflow"
)

// EvalQuery is one question asked of every scenario in the batch.
type EvalQuery struct {
	// Kind selects the query semantics: predict_transfers (Transfers,
	// optionally Background), select_fastest (Hypotheses), or
	// predict_workflow (Workflow).
	Kind string `json:"kind"`
	// Transfers is the predict_transfers workload.
	Transfers []TransferRequest `json:"transfers,omitempty"`
	// Background adds per-query cross-traffic, on top of whatever the
	// scenario injects.
	Background [][2]string `json:"bg,omitempty"`
	// Hypotheses is the select_fastest alternative set.
	Hypotheses []Hypothesis `json:"hypotheses,omitempty"`
	// Workflow is the predict_workflow DAG.
	Workflow *workflow.Workflow `json:"workflow,omitempty"`
}

// validate checks the query's shape.
func (q *EvalQuery) validate(i int) error {
	switch q.Kind {
	case QueryPredictTransfers:
		if len(q.Transfers) == 0 {
			return fmt.Errorf("pilgrim: query %d: predict_transfers needs transfers", i)
		}
		for _, t := range q.Transfers {
			if t.Src == "" || t.Dst == "" || t.Size <= 0 || math.IsNaN(t.Size) || math.IsInf(t.Size, 0) {
				return fmt.Errorf("pilgrim: query %d: invalid transfer %+v", i, t)
			}
		}
	case QuerySelectFastest:
		if len(q.Hypotheses) == 0 {
			return fmt.Errorf("pilgrim: query %d: select_fastest needs hypotheses", i)
		}
		for hi, h := range q.Hypotheses {
			if len(h.Transfers) == 0 {
				return fmt.Errorf("pilgrim: query %d: hypothesis %d is empty", i, hi)
			}
		}
	case QueryPredictWorkflow:
		if q.Workflow == nil {
			return fmt.Errorf("pilgrim: query %d: predict_workflow needs a workflow", i)
		}
		if _, err := q.Workflow.Validate(); err != nil {
			return fmt.Errorf("pilgrim: query %d: %w", i, err)
		}
	default:
		return fmt.Errorf("pilgrim: query %d: unknown kind %q", i, q.Kind)
	}
	return nil
}

// EvaluateRequest is the evaluate body: N scenarios × M queries. An empty
// scenario list evaluates one implicit baseline scenario (no mutations),
// making evaluate a pure batch-query API.
type EvaluateRequest struct {
	// At evaluates every scenario against the platform's epoch at this
	// Unix time (same semantics as the at= query parameter; 0 = newest
	// observation). A scenario's own at_time mutation overrides it.
	At        int64               `json:"at,omitempty"`
	Scenarios []scenario.Scenario `json:"scenarios,omitempty"`
	Queries   []EvalQuery         `json:"queries"`
}

// EvalResult is one cell of the answer grid: exactly one of the result
// fields is set, or Error when this scenario cannot answer this query
// (e.g. a transfer routed over a failed link). A cell error never fails
// the batch — failure sweeps want the other cells.
type EvalResult struct {
	Error       string             `json:"error,omitempty"`
	Predictions []Prediction       `json:"predictions,omitempty"`
	Best        *int               `json:"best,omitempty"`
	Hypotheses  []HypothesisResult `json:"hypotheses,omitempty"`
	Forecast    *workflow.Forecast `json:"forecast,omitempty"`
}

// ScenarioResult is one scenario's row: the epoch it evaluated against,
// its provenance (the canonical mutation list recorded on the epoch), and
// one EvalResult per request query. Error is set when the scenario itself
// failed to compile (unknown resources, beyond-horizon at_time); its
// Results are then absent.
type ScenarioResult struct {
	Name            string       `json:"name,omitempty"`
	Epoch           uint64       `json:"epoch,omitempty"`
	Provenance      string       `json:"provenance,omitempty"`
	BackgroundFlows int          `json:"background_flows,omitempty"`
	Error           string       `json:"error,omitempty"`
	Results         []EvalResult `json:"results,omitempty"`
}

// EvaluateStats is the per-request dedup accounting.
type EvaluateStats struct {
	// Scenarios and Queries are the request's grid dimensions; Cells
	// their product.
	Scenarios int `json:"scenarios"`
	Queries   int `json:"queries"`
	Cells     int `json:"cells"`
	// Groups is the number of distinct (epoch, background) pictures the
	// scenarios collapsed to — the unit of parallel fan-out, each running
	// its queries on one pooled engine.
	Groups int `json:"groups"`
	// OverlaysReused counts scenarios whose derived epoch came from the
	// overlay cache (or was shared within the request) instead of a fresh
	// ApplyOverlay.
	OverlaysReused int `json:"overlays_reused"`
	// Simulations counts sub-simulations actually executed (base runs,
	// checkpoint forks, cold runs, and workflow forecasts alike); CacheHits
	// counts sub-simulations answered from the forecast cache.
	Simulations int `json:"simulations"`
	CacheHits   int `json:"cache_hits"`
	// BaseGroups is the number of distinct (base epoch, background)
	// supergroups the differential evaluator collapsed the groups into —
	// the unit of warm-start sharing. Zero when differential evaluation is
	// disabled.
	BaseGroups int `json:"base_groups,omitempty"`
	// ForkReused counts derived-epoch cells answered by provably
	// bit-identical reuse of the base answer (no simulation); ForkRuns
	// counts cells answered by replaying the base engine's pre-run
	// checkpoint on the derived epoch; ForkCold counts derived cells that
	// fell back to a full cold run (delta touched schedule-time state).
	ForkReused int `json:"fork_reused,omitempty"`
	ForkRuns   int `json:"fork_runs,omitempty"`
	ForkCold   int `json:"fork_cold,omitempty"`
	// ForkResolvedConstraints totals the bandwidth-changed constraints the
	// forks re-priced — the actual incremental-solver work the warm starts
	// paid instead of full re-simulations.
	ForkResolvedConstraints int `json:"fork_resolved_constraints,omitempty"`
}

// EvaluateResponse is the evaluate answer: one row per scenario, in
// request order, plus the dedup accounting.
type EvaluateResponse struct {
	Platform  string           `json:"platform"`
	Scenarios []ScenarioResult `json:"scenarios"`
	Stats     EvaluateStats    `json:"stats"`
}

// OverlayCache memoizes scenario-derived epochs across requests, keyed by
// (base epoch, canonical overlay): a failure sweep polled by a scheduler
// resolves to the same derived epochs every time, which keeps the
// forecast cache's epoch-keyed entries warm between requests. Bounded
// LRU; evicted snapshots become collectable once no engine pool flavour
// pins them.
type OverlayCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	lru      *list.List
	hits     uint64
	misses   uint64
}

type overlayEntry struct {
	key  string
	snap *platform.Snapshot
}

// DefaultOverlayCacheSize is the overlay cache capacity NewServer
// installs.
const DefaultOverlayCacheSize = 128

// NewOverlayCache returns an overlay cache holding up to capacity derived
// epochs (capacity <= 0 disables reuse: every scenario derives afresh).
func NewOverlayCache(capacity int) *OverlayCache {
	return &OverlayCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

func overlayCacheKey(baseEpoch uint64, key string) string {
	return strconv.FormatUint(baseEpoch, 16) + "\x1c" + key
}

func (oc *OverlayCache) get(baseEpoch uint64, key string) (*platform.Snapshot, bool) {
	if oc == nil {
		return nil, false
	}
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.capacity > 0 {
		if el, ok := oc.entries[overlayCacheKey(baseEpoch, key)]; ok {
			oc.lru.MoveToFront(el)
			oc.hits++
			return el.Value.(*overlayEntry).snap, true
		}
	}
	oc.misses++
	return nil, false
}

func (oc *OverlayCache) put(baseEpoch uint64, key string, snap *platform.Snapshot) {
	if oc == nil || oc.capacity <= 0 {
		return
	}
	oc.mu.Lock()
	defer oc.mu.Unlock()
	k := overlayCacheKey(baseEpoch, key)
	if _, ok := oc.entries[k]; ok {
		return
	}
	oc.entries[k] = oc.lru.PushFront(&overlayEntry{key: k, snap: snap})
	for oc.lru.Len() > oc.capacity {
		oldest := oc.lru.Back()
		oc.lru.Remove(oldest)
		delete(oc.entries, oldest.Value.(*overlayEntry).key)
	}
}

// OverlayStats is the overlay cache accounting surfaced by cache_stats.
type OverlayStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Size     int    `json:"size"`
	Capacity int    `json:"capacity"`
}

// Stats returns a snapshot of the overlay cache counters.
func (oc *OverlayCache) Stats() OverlayStats {
	if oc == nil {
		return OverlayStats{}
	}
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return OverlayStats{Hits: oc.hits, Misses: oc.misses, Size: oc.lru.Len(), Capacity: oc.capacity}
}

// Evaluator bundles the moving parts of batched evaluation. The server
// assembles one per request from its live configuration; embedders (the
// examples, the benchmarks) hold one directly.
type Evaluator struct {
	Platforms *Registry
	Cache     *ForecastCache
	Pool      *WorkerPool
	// Overlays may be nil (no cross-request epoch reuse).
	Overlays *OverlayCache
	// MaxScenarios and MaxCells bound a request (<= 0 selects the
	// defaults).
	MaxScenarios int
	MaxCells     int
	// DisableDifferential forces every group to evaluate cold, turning off
	// the warm-start base-run+delta machinery. It exists as the cold
	// reference the differential tests and benchmarks compare against;
	// results are bit-identical either way.
	DisableDifferential bool
}

// evalGroup is one distinct (epoch, background) picture: the scenarios
// that collapsed to it and the per-query results computed once for all of
// them.
type evalGroup struct {
	entry     PlatformEntry        // pinned to the group's derived epoch
	base      PlatformEntry        // pinned to the epoch the scenario derived from
	delta     *platform.EpochDelta // derived-vs-base mutation classes (empty when entry is the base)
	bg        [][2]string          // canonical scenario background
	scenarios []int                // request indices sharing this group
	results   []EvalResult         // one per request query
	sims      int                  // sub-simulations this group executed
	hits      int                  // sub-simulations answered by the cache
	reused    int                  // derived cells answered by base-result reuse
	forked    int                  // derived cells answered by checkpoint-fork replay
	cold      int                  // derived cells that fell back to a cold run
	resolved  int                  // constraints re-priced across this group's forks
}

// Evaluate answers one N×M batch for the named platform. Request-shape
// problems (unknown platform, no queries, limits exceeded) fail the call;
// per-scenario and per-cell problems are reported inside the response.
func (ev *Evaluator) Evaluate(name string, req EvaluateRequest) (*EvaluateResponse, error) {
	return ev.EvaluateCtx(context.Background(), name, req)
}

// EvaluateCtx is Evaluate under a request context: scenario resolution
// checks ctx between scenarios, and the group fan-out stops dispatching
// once ctx is done (running groups finish — a simulation is not
// interruptible). An expired ctx fails the call; the HTTP layer maps
// context.DeadlineExceeded to 504.
func (ev *Evaluator) EvaluateCtx(ctx context.Context, name string, req EvaluateRequest) (*EvaluateResponse, error) {
	reg := ev.Platforms
	if reg == nil {
		return nil, fmt.Errorf("pilgrim: evaluator has no registry")
	}
	if _, ok := reg.Get(name); !ok {
		return nil, fmt.Errorf("pilgrim: unknown platform %q", name)
	}
	maxScen := ev.MaxScenarios
	if maxScen <= 0 {
		maxScen = DefaultMaxScenarios
	}
	maxCells := ev.MaxCells
	if maxCells <= 0 {
		maxCells = DefaultMaxEvaluateCells
	}
	scenarios := req.Scenarios
	if len(scenarios) == 0 {
		scenarios = []scenario.Scenario{{Name: "baseline"}}
	}
	if len(scenarios) > maxScen {
		return nil, fmt.Errorf("pilgrim: %d scenarios exceed the limit of %d", len(scenarios), maxScen)
	}
	if len(req.Queries) == 0 {
		return nil, fmt.Errorf("pilgrim: at least one query required")
	}
	if cells := len(scenarios) * len(req.Queries); cells > maxCells {
		return nil, fmt.Errorf("pilgrim: %d scenario×query cells exceed the fan-out limit of %d",
			cells, maxCells)
	}
	for i := range req.Queries {
		if err := req.Queries[i].validate(i); err != nil {
			return nil, err
		}
	}

	resp := &EvaluateResponse{
		Platform:  name,
		Scenarios: make([]ScenarioResult, len(scenarios)),
		Stats: EvaluateStats{
			Scenarios: len(scenarios),
			Queries:   len(req.Queries),
			Cells:     len(scenarios) * len(req.Queries),
		},
	}

	// Phase 1 (serial): resolve every scenario to its derived epoch and
	// collapse equal (epoch, background) pictures into groups.
	groups := make(map[string]*evalGroup)
	var order []*evalGroup
	for si := range scenarios {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc := &scenarios[si]
		row := &resp.Scenarios[si]
		row.Name = sc.Name

		entry, err := ev.scenarioBase(name, req.At, sc)
		if err != nil {
			row.Error = err.Error()
			continue
		}
		var bgEst [][2]string
		if sc.WantsBgEstimate() {
			bgEst, _, _ = reg.BackgroundEstimate(name)
		}
		base := entry.snapshot()
		resolved, err := sc.Resolve(base, bgEst)
		if err != nil {
			row.Error = err.Error()
			continue
		}
		snap := base
		if !resolved.Empty() {
			key := resolved.Key()
			cached, ok := ev.Overlays.get(base.Epoch(), key)
			if ok {
				snap = cached
				resp.Stats.OverlaysReused++
			} else {
				snap, err = resolved.Apply(base)
				if err != nil {
					row.Error = err.Error()
					continue
				}
				ev.Overlays.put(base.Epoch(), key, snap)
			}
		}
		baseEntry := entry
		baseEntry.Snapshot = base
		delta := &platform.EpochDelta{}
		if snap != base {
			// O(mutations), no epoch walk: the resolved overlay knows
			// exactly which resources it changed away from base values.
			delta = resolved.Delta(base)
		}
		entry.Snapshot = snap
		row.Epoch = snap.Epoch()
		row.Provenance = snap.Provenance()
		row.BackgroundFlows = len(resolved.Background)

		bg := canonicalBackground(resolved.Background)
		gk := groupKey(snap.Epoch(), bg)
		g := groups[gk]
		if g == nil {
			g = &evalGroup{entry: entry, base: baseEntry, delta: delta, bg: bg}
			groups[gk] = g
			order = append(order, g)
		}
		g.scenarios = append(g.scenarios, si)
	}
	resp.Stats.Groups = len(order)

	// Phase 2 (parallel): run each group's query batch on one pooled
	// engine, deduplicating sub-simulations through the forecast cache.
	// Queries are canonicalized once here — per group only the epoch
	// prefix of each cache key changes.
	templates := buildSubTemplates(req.Queries)
	pool := ev.Pool
	if pool == nil {
		pool = defaultPool()
	}
	pool.evalCalls.Add(1)
	pool.evalCells.Add(uint64(resp.Stats.Cells))
	pool.evalRuns.Add(uint64(len(order)))
	var supers []*superGroup
	if ev.DisableDifferential {
		errs := make([]error, len(order))
		if err := pool.RunCtx(ctx, len(order), func(gi int) {
			g := order[gi]
			g.results, errs[gi] = ev.runGroup(ctx, name, g, req.Queries, templates)
		}); err != nil {
			return nil, err
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else {
		// Groups deriving from one base epoch under one background picture
		// share their base answers and fork handles: the supergroup is the
		// unit of fan-out, evaluated serially inside one pool slot.
		supers = buildSuperGroups(order)
		resp.Stats.BaseGroups = len(supers)
		errs := make([]error, len(supers))
		if err := pool.RunCtx(ctx, len(supers), func(si int) {
			errs[si] = ev.runSuperGroup(ctx, name, supers[si], req.Queries, templates)
		}); err != nil {
			return nil, err
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	// Phase 3 (serial): fan group results back into the scenario rows.
	for _, sg := range supers {
		resp.Stats.Simulations += sg.baseSims
	}
	for _, g := range order {
		resp.Stats.Simulations += g.sims
		resp.Stats.CacheHits += g.hits
		resp.Stats.ForkReused += g.reused
		resp.Stats.ForkRuns += g.forked
		resp.Stats.ForkCold += g.cold
		resp.Stats.ForkResolvedConstraints += g.resolved
		for _, si := range g.scenarios {
			resp.Scenarios[si].Results = g.results
		}
	}
	pool.evalSims.Add(uint64(resp.Stats.Simulations))
	pool.evalForkReused.Add(uint64(resp.Stats.ForkReused))
	pool.evalForkRuns.Add(uint64(resp.Stats.ForkRuns))
	pool.evalForkCold.Add(uint64(resp.Stats.ForkCold))
	pool.evalForkConstraints.Add(uint64(resp.Stats.ForkResolvedConstraints))
	return resp, nil
}

// scenarioBase resolves the epoch a scenario starts from: its own at_time
// mutation, else the request-level at, else the newest observation.
func (ev *Evaluator) scenarioBase(name string, reqAt int64, sc *scenario.Scenario) (PlatformEntry, error) {
	at, ok := sc.At()
	if !ok {
		at = reqAt
	}
	if at == 0 {
		entry, found := ev.Platforms.Get(name)
		if !found {
			return PlatformEntry{}, fmt.Errorf("pilgrim: unknown platform %q", name)
		}
		return entry, nil
	}
	return ev.Platforms.GetAt(name, at)
}

func groupKey(epoch uint64, bg [][2]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%x", epoch)
	for _, f := range bg {
		b.WriteByte(0x1d)
		b.WriteString(f[0])
		b.WriteByte(0x1f)
		b.WriteString(f[1])
	}
	return b.String()
}

// subTemplate is the group-independent canonical form of one
// sub-simulation: the transfer multiset sorted once, its key fragment
// prebuilt, the sim-level transfer list ready to plan (read-only, shared
// across groups). Per group, the cache key is the group's entry prefix +
// tKey + the merged background's key.
type subTemplate struct {
	order   []int
	canon   []TransferRequest
	sims    []sim.Transfer
	tKey    string
	extraBg [][2]string // per-query background (canonical)
}

func newSubTemplate(transfers []TransferRequest, extraBg [][2]string) subTemplate {
	order := canonicalize(transfers)
	canon := make([]TransferRequest, len(transfers))
	sims := make([]sim.Transfer, len(transfers))
	for pos, i := range order {
		canon[pos] = transfers[i]
		sims[pos] = sim.Transfer{Src: transfers[i].Src, Dst: transfers[i].Dst, Size: transfers[i].Size}
	}
	return subTemplate{
		order:   order,
		canon:   canon,
		sims:    sims,
		tKey:    transfersKey(transfers, order),
		extraBg: canonicalBackground(extraBg),
	}
}

// buildSubTemplates canonicalizes every query's sub-simulations once per
// request (nil rows for workflow queries, which carry no transfer subs).
func buildSubTemplates(queries []EvalQuery) [][]subTemplate {
	out := make([][]subTemplate, len(queries))
	for qi := range queries {
		q := &queries[qi]
		switch q.Kind {
		case QueryPredictTransfers:
			out[qi] = []subTemplate{newSubTemplate(q.Transfers, q.Background)}
		case QuerySelectFastest:
			subs := make([]subTemplate, len(q.Hypotheses))
			for hi, h := range q.Hypotheses {
				subs[hi] = newSubTemplate(h.Transfers, q.Background)
			}
			out[qi] = subs
		}
	}
	return out
}

// planSub is one cacheable sub-simulation of a group's plan: where its
// answer comes from (the cache, a plan slot shared with identical subs,
// or another request's in-flight flight) and how to fold it back into
// its cell.
type planSub struct {
	tmpl     *subTemplate
	key      string
	bg       [][2]string  // merged background (for the abandoned-flight fallback)
	cached   []Prediction // canonical order, when the cache answered
	err      error        // terminal error delivered by a followed flight
	planSlot int          // index into the RunPlan batch, -1 when cached/followed
	flight   *flightCall  // in-flight answer owned by another request
}

// runGroup answers every request query against one derived epoch. All
// misses across all queries run as a single sim.RunPlan batch on one
// pooled engine; identical sub-simulations — across hypotheses, across
// queries — collapse onto one plan slot, and subs another request is
// already simulating coalesce onto that request's flight. Follows the
// flight deadlock discipline (flight.go): every flight this group leads
// completes before it waits on a followed one. A non-nil error is the
// caller's ctx expiring mid-wait and fails the whole request.
func (ev *Evaluator) runGroup(ctx context.Context, name string, g *evalGroup, queries []EvalQuery, templates [][]subTemplate) ([]EvalResult, error) {
	results := make([]EvalResult, len(queries))
	subs := make([][]planSub, len(queries)) // per query, its sub-simulations (nil for workflow)
	var plan []sim.PlanQuery
	var ledFlights []*flightCall    // parallel to plan
	planIdx := make(map[string]int) // canonical key -> plan slot
	followIdx := make(map[string]*flightCall)
	prefix := cacheKeyPrefix(name, g.entry)

	addSub := func(qi int, tmpl *subTemplate) {
		bg := g.bg
		if len(tmpl.extraBg) > 0 {
			bg = canonicalBackground(append(append([][2]string(nil), g.bg...), tmpl.extraBg...))
		}
		sub := planSub{tmpl: tmpl, key: prefix + tmpl.tKey + backgroundKey(bg), bg: bg, planSlot: -1}
		if slot, ok := planIdx[sub.key]; ok {
			sub.planSlot = slot // identical sub already planned this batch
			g.hits++
		} else if f, ok := followIdx[sub.key]; ok {
			sub.flight = f // identical sub already followed this batch
			g.hits++
		} else if canonical, f, leader := ev.Cache.lead(sub.key); canonical != nil {
			sub.cached = canonical
			g.hits++
		} else if leader {
			sub.planSlot = len(plan)
			planIdx[sub.key] = len(plan)
			plan = append(plan, sim.PlanQuery{Transfers: tmpl.sims, Background: bg})
			ledFlights = append(ledFlights, f)
		} else {
			// Another request is simulating this key right now: wait for
			// its answer after our own plan runs and publishes.
			sub.flight = f
			followIdx[sub.key] = f
			g.hits++
		}
		subs[qi] = append(subs[qi], sub)
	}

	for qi := range queries {
		q := &queries[qi]
		switch q.Kind {
		case QueryPredictTransfers, QuerySelectFastest:
			for ti := range templates[qi] {
				addSub(qi, &templates[qi][ti])
			}
		case QueryPredictWorkflow:
			// Workflows bypass the transfer cache but still share the
			// group's engine-pool flavour and background picture (the
			// scenario's flows plus any per-query ones).
			bg := g.bg
			if len(q.Background) > 0 {
				bg = canonicalBackground(append(append([][2]string(nil), g.bg...), q.Background...))
			}
			f, err := workflow.PredictWithBackground(g.entry.snapshot(), g.entry.Config, q.Workflow, bg)
			g.sims++
			if err != nil {
				results[qi].Error = err.Error()
			} else {
				results[qi].Forecast = f
			}
		}
	}

	ledKeys := invertPlanIndex(planIdx, len(plan))
	// Settle every led flight no matter how this function exits: a
	// panic below must not leave followers waiting forever (abandon is
	// a no-op on flights completed normally).
	defer func() {
		for slot, key := range ledKeys {
			ev.Cache.abandon(key, ledFlights[slot])
		}
	}()

	planResults := sim.RunPlan(g.entry.snapshot(), g.entry.Config, plan)
	g.sims += len(plan)

	// Convert and memoize each successful plan slot once; shared slots
	// and later requests reuse the same canonical slice. The Store
	// precedes the flight completion (flight.go's arrival invariant).
	planPreds := make([][]Prediction, len(plan))
	for slot, key := range ledKeys {
		preds, err := planToPreds(&planResults[slot])
		if err != nil {
			ev.Cache.complete(key, ledFlights[slot], nil, err)
			continue
		}
		planPreds[slot] = preds
		ev.Cache.Store(key, preds)
		ev.Cache.complete(key, ledFlights[slot], preds, nil)
	}

	// Only now — every led flight published — wait for the answers other
	// requests are computing for us.
	for qi := range subs {
		for si := range subs[qi] {
			sub := &subs[qi][si]
			if sub.flight == nil {
				continue
			}
			preds, err := ev.Cache.waitFlight(ctx, sub.key, sub.flight, func() ([]Prediction, error) {
				res := sim.RunPlan(g.entry.snapshot(), g.entry.Config,
					[]sim.PlanQuery{{Transfers: sub.tmpl.sims, Background: sub.bg}})
				g.sims++
				return planToPreds(&res[0])
			})
			if err != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			sub.cached, sub.err = preds, err
		}
	}

	foldSubResults(queries, templates, func(qi, si int) ([]Prediction, error) {
		sub := &subs[qi][si]
		if sub.err != nil {
			return nil, sub.err
		}
		if sub.cached != nil {
			return sub.cached, nil
		}
		if err := planResults[sub.planSlot].Err; err != nil {
			return nil, err
		}
		return planPreds[sub.planSlot], nil
	}, results)
	return results, nil
}

// planToPreds converts one plan result into canonical-order predictions.
func planToPreds(pr *sim.PlanResult) ([]Prediction, error) {
	if pr.Err != nil {
		return nil, pr.Err
	}
	preds := make([]Prediction, len(pr.Results))
	for i, r := range pr.Results {
		preds[i] = Prediction{Src: r.Src, Dst: r.Dst, Size: r.Size, Duration: r.Duration}
	}
	return preds, nil
}

// foldSubResults assembles the predict_transfers and select_fastest cells
// from their resolved canonical sub-answers; resolve returns the canonical
// predictions (or the failure) of the si'th sub-simulation of query qi.
// Workflow cells are untouched — they carry no transfer subs.
func foldSubResults(queries []EvalQuery, templates [][]subTemplate, resolve func(qi, si int) ([]Prediction, error), results []EvalResult) {
	for qi := range queries {
		switch queries[qi].Kind {
		case QueryPredictTransfers:
			canonical, err := resolve(qi, 0)
			if err != nil {
				results[qi].Error = err.Error()
				continue
			}
			results[qi].Predictions = reorder(canonical, templates[qi][0].order)
		case QuerySelectFastest:
			hyps := make([]HypothesisResult, len(templates[qi]))
			failed := false
			for hi := range templates[qi] {
				canonical, err := resolve(qi, hi)
				if err != nil {
					results[qi].Error = fmt.Sprintf("hypothesis %d: %v", hi, err)
					failed = true
					break
				}
				preds := reorder(canonical, templates[qi][hi].order)
				makespan := 0.0
				for _, p := range preds {
					if p.Duration > makespan {
						makespan = p.Duration
					}
				}
				hyps[hi] = HypothesisResult{Index: hi, Makespan: makespan, Predictions: preds}
			}
			if failed {
				continue
			}
			best := 0
			for hi := 1; hi < len(hyps); hi++ {
				if hyps[hi].Makespan < hyps[best].Makespan {
					best = hi
				}
			}
			results[qi].Best = &best
			results[qi].Hypotheses = hyps
		}
	}
}

// invertPlanIndex maps plan slots back to their canonical keys.
func invertPlanIndex(planIdx map[string]int, n int) []string {
	keys := make([]string, n)
	for k, slot := range planIdx {
		keys[slot] = k
	}
	return keys
}

// superGroup is the unit of differential fan-out: every group that derives
// from one base epoch under one scenario-background picture. The member
// epochs differ from that base by small overlays, so the supergroup
// answers its members against one set of base runs: cells whose query
// footprint misses a member's delta reuse the base answer outright,
// bandwidth-only overlaps replay from the base engine's pre-run
// checkpoint, and the rest run cold — all bit-identical to evaluating
// each member in isolation (see internal/sim/diff.go for the soundness
// argument).
type superGroup struct {
	base     PlatformEntry
	bg       [][2]string
	members  []*evalGroup
	baseSims int // base-epoch sub-simulations run on behalf of the members
}

func buildSuperGroups(order []*evalGroup) []*superGroup {
	index := make(map[string]*superGroup)
	var supers []*superGroup
	for _, g := range order {
		k := groupKey(g.base.snapshot().Epoch(), g.bg)
		sg := index[k]
		if sg == nil {
			sg = &superGroup{base: g.base, bg: g.bg}
			index[k] = sg
			supers = append(supers, sg)
		}
		sg.members = append(sg.members, g)
	}
	return supers
}

// diffSub is one distinct sub-simulation of a supergroup. Members share
// one background picture, so every member asks the sub with identical
// transfers and merged background: one base answer — and one fork handle —
// serves the whole member set. Its cache key under any epoch is that
// epoch's prefix plus frag.
type diffSub struct {
	tmpl *subTemplate
	frag string
	plan sim.PlanQuery
	fp   *sim.Footprint // lazy: only computed when some member misses
}

// footprint resolves (once) the sub's resource footprint on the base
// epoch; routes are topology-level, so it is valid for every member.
func (ds *diffSub) footprint(base *platform.Snapshot) *sim.Footprint {
	if ds.fp == nil {
		f := sim.PlanFootprint(base, &ds.plan)
		ds.fp = &f
	}
	return ds.fp
}

// subAnswer is one resolved sub-simulation: canonical predictions or the
// simulation's error.
type subAnswer struct {
	preds []Prediction
	err   error
	have  bool
}

// runSuperGroup answers every member group of one base epoch. Per member
// it first probes the member's own cache keys (exactly like a cold group
// would), classifies the remaining subs against the member's delta, then
// resolves them by base-answer reuse, checkpoint fork, or batched cold
// runs. All counters live on the member groups except baseSims, which
// counts base-epoch work attributable to the supergroup as a whole.
// Member-key misses lead coalescing flights (completed as each answer
// lands) and keys another request is already simulating are followed —
// but only after every led flight has published, per flight.go's
// deadlock discipline. A non-nil error is ctx expiring mid-wait.
func (ev *Evaluator) runSuperGroup(ctx context.Context, name string, sg *superGroup, queries []EvalQuery, templates [][]subTemplate) error {
	// A lone member sitting on its own base epoch has nothing to diff
	// against — the classic path is strictly cheaper.
	if len(sg.members) == 1 && sg.members[0].delta.Empty() {
		g := sg.members[0]
		var err error
		g.results, err = ev.runGroup(ctx, name, g, queries, templates)
		return err
	}

	base := sg.base.snapshot()
	basePrefix := cacheKeyPrefix(name, sg.base)

	// Collect the distinct sub-simulations of the member set and map every
	// (query, sub) instance onto them.
	var dsubs []diffSub
	dedup := make(map[string]int)
	inst := make([][]int, len(queries))
	for qi := range queries {
		if templates[qi] == nil {
			continue
		}
		inst[qi] = make([]int, len(templates[qi]))
		for si := range templates[qi] {
			tmpl := &templates[qi][si]
			bg := sg.bg
			if len(tmpl.extraBg) > 0 {
				bg = canonicalBackground(append(append([][2]string(nil), sg.bg...), tmpl.extraBg...))
			}
			frag := tmpl.tKey + backgroundKey(bg)
			di, ok := dedup[frag]
			if !ok {
				di = len(dsubs)
				dedup[frag] = di
				dsubs = append(dsubs, diffSub{
					tmpl: tmpl,
					frag: frag,
					plan: sim.PlanQuery{Transfers: tmpl.sims, Background: bg},
				})
			}
			inst[qi][si] = di
		}
	}

	// Per member: probe the member's cache keys per instance (preserving
	// the classic path's hit accounting: a repeated instance is an in-plan
	// dedup hit) and classify what is left against the member's delta.
	type memberState struct {
		g        *evalGroup
		prefix   string
		answers  []subAnswer
		need     []int // dsub indices this member still has to resolve
		class    []sim.DeltaClass
		cold     []int               // dsub indices falling back to a cold run
		led      map[int]*flightCall // flights this member leads, by dsub index
		followed map[int]*flightCall // flights owned by other requests, by dsub index
	}
	needBase := make([]bool, len(dsubs))
	wantCk := make([]bool, len(dsubs))
	members := make([]*memberState, len(sg.members))
	// Settle every led flight no matter how this function exits: a panic
	// must not leave followers waiting forever (abandon no-ops on
	// flights completed normally below).
	defer func() {
		for _, m := range members {
			if m == nil {
				continue
			}
			for di, f := range m.led {
				ev.Cache.abandon(m.prefix+dsubs[di].frag, f)
			}
		}
	}()
	for mi, g := range sg.members {
		m := &memberState{
			g:        g,
			prefix:   cacheKeyPrefix(name, g.entry),
			answers:  make([]subAnswer, len(dsubs)),
			class:    make([]sim.DeltaClass, len(dsubs)),
			led:      make(map[int]*flightCall),
			followed: make(map[int]*flightCall),
		}
		members[mi] = m
		needed := make([]bool, len(dsubs))
		for qi := range queries {
			for _, di := range inst[qi] {
				if m.answers[di].have {
					g.hits++ // cached answer shared by a repeated instance
					continue
				}
				if needed[di] || m.followed[di] != nil {
					g.hits++ // in-plan dedup: identical sub already pending
					continue
				}
				cached, f, leader := ev.Cache.lead(m.prefix + dsubs[di].frag)
				if cached != nil {
					m.answers[di] = subAnswer{preds: cached, have: true}
					g.hits++
					continue
				}
				if !leader {
					// Another request is simulating this key: collect its
					// answer after every flight we lead has published.
					m.followed[di] = f
					g.hits++
					continue
				}
				if f != nil {
					m.led[di] = f
				}
				needed[di] = true
				m.need = append(m.need, di)
			}
		}
		for _, di := range m.need {
			cls := sim.ClassReuse
			if !g.delta.Empty() {
				cls = dsubs[di].footprint(base).Classify(g.delta)
			}
			m.class[di] = cls
			if cls == sim.ClassReuse || cls == sim.ClassFork {
				needBase[di] = true
				if cls == sim.ClassFork {
					wantCk[di] = true
				}
			}
		}
	}

	// Resolve the base answers the members need: from the forecast cache
	// when an earlier request already paid for them (capturing a fork
	// handle separately costs only the plan setup), else by running the
	// missing base subs as one batch with checkpoints where forks want
	// them.
	// Base keys lead flights too (leadOrRun) so concurrent predict
	// requests against the base epoch can coalesce onto this batch —
	// but this phase never waits on a foreign flight: member answers
	// below depend on the base answers, and parking here could chain
	// into a cross-request cycle. When another request owns the flight,
	// the base sub just runs again (the pre-coalescing race, bounded to
	// this window).
	baseAns := make([]subAnswer, len(dsubs))
	cks := make([]*sim.PlanCheckpoint, len(dsubs))
	baseLed := make([]*flightCall, len(dsubs))
	defer func() {
		for di, f := range baseLed {
			ev.Cache.abandon(basePrefix+dsubs[di].frag, f)
		}
	}()
	var runIdx []int
	for di := range dsubs {
		if !needBase[di] {
			continue
		}
		preds, f, leader := ev.Cache.leadOrRun(basePrefix + dsubs[di].frag)
		if preds != nil {
			baseAns[di] = subAnswer{preds: preds, have: true}
			if wantCk[di] {
				cks[di] = sim.CheckpointPlan(base, sg.base.Config, dsubs[di].plan)
			}
			continue
		}
		if leader {
			baseLed[di] = f
		}
		runIdx = append(runIdx, di)
	}
	if len(runIdx) > 0 {
		plan := make([]sim.PlanQuery, len(runIdx))
		want := make([]bool, len(runIdx))
		for j, di := range runIdx {
			plan[j] = dsubs[di].plan
			want[j] = wantCk[di]
		}
		res, pcs := sim.RunPlanCheckpoints(base, sg.base.Config, plan, want)
		sg.baseSims += len(runIdx)
		for j, di := range runIdx {
			preds, err := planToPreds(&res[j])
			baseAns[di] = subAnswer{preds: preds, err: err, have: true}
			cks[di] = pcs[j]
			if err == nil {
				ev.Cache.Store(basePrefix+dsubs[di].frag, preds)
			}
			ev.Cache.complete(basePrefix+dsubs[di].frag, baseLed[di], preds, err)
		}
	}

	// Answer each member's remaining subs by the cheapest sound strategy,
	// memoizing successes under the member's own keys so the next request
	// short-circuits at the cache probes above. The base-epoch member (if
	// any) resolves everything as reuse against keys it already owns; its
	// reuses are plain dedup, not differential wins, so the fork counters
	// only move for members with a real delta.
	for _, m := range members {
		g := m.g
		derived := g.delta != nil && !g.delta.Empty()
		for _, di := range m.need {
			if m.class[di] == sim.ClassFork {
				if pc := cks[di]; pc != nil {
					if pr, ok := pc.Fork(g.entry.snapshot()); ok {
						preds, err := planToPreds(&pr)
						m.answers[di] = subAnswer{preds: preds, err: err, have: true}
						g.sims++
						g.forked++
						g.resolved += dsubs[di].footprint(base).TouchedBw(g.delta)
						if err == nil {
							ev.Cache.Store(m.prefix+dsubs[di].frag, preds)
						}
						ev.Cache.complete(m.prefix+dsubs[di].frag, m.led[di], preds, err)
						continue
					}
				}
				m.class[di] = sim.ClassCold // no handle (base setup failed) or fork refused
			}
			switch m.class[di] {
			case sim.ClassReuse:
				m.answers[di] = baseAns[di]
				if derived {
					g.reused++
					if baseAns[di].err == nil {
						ev.Cache.Store(m.prefix+dsubs[di].frag, baseAns[di].preds)
					}
				}
				ev.Cache.complete(m.prefix+dsubs[di].frag, m.led[di], baseAns[di].preds, baseAns[di].err)
			case sim.ClassCold:
				m.cold = append(m.cold, di)
			}
		}
		if len(m.cold) > 0 {
			plan := make([]sim.PlanQuery, len(m.cold))
			for j, di := range m.cold {
				plan[j] = dsubs[di].plan
			}
			res := sim.RunPlan(g.entry.snapshot(), g.entry.Config, plan)
			g.sims += len(plan)
			for j, di := range m.cold {
				preds, err := planToPreds(&res[j])
				m.answers[di] = subAnswer{preds: preds, err: err, have: true}
				if derived {
					g.cold++
				}
				if err == nil {
					ev.Cache.Store(m.prefix+dsubs[di].frag, preds)
				}
				ev.Cache.complete(m.prefix+dsubs[di].frag, m.led[di], preds, err)
			}
		}
	}

	// Every flight this supergroup leads has published; only now wait
	// for the answers other requests are computing for us (flight.go's
	// deadlock discipline).
	for _, m := range members {
		for di, f := range m.followed {
			ds := &dsubs[di]
			preds, err := ev.Cache.waitFlight(ctx, m.prefix+ds.frag, f, func() ([]Prediction, error) {
				res := sim.RunPlan(m.g.entry.snapshot(), m.g.entry.Config, []sim.PlanQuery{ds.plan})
				m.g.sims++
				return planToPreds(&res[0])
			})
			if err != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			m.answers[di] = subAnswer{preds: preds, err: err, have: true}
		}
	}

	for _, m := range members {
		g := m.g
		// Workflow cells bypass the transfer machinery entirely, exactly as
		// in the classic path.
		results := make([]EvalResult, len(queries))
		for qi := range queries {
			q := &queries[qi]
			if q.Kind != QueryPredictWorkflow {
				continue
			}
			bg := g.bg
			if len(q.Background) > 0 {
				bg = canonicalBackground(append(append([][2]string(nil), g.bg...), q.Background...))
			}
			f, err := workflow.PredictWithBackground(g.entry.snapshot(), g.entry.Config, q.Workflow, bg)
			g.sims++
			if err != nil {
				results[qi].Error = err.Error()
			} else {
				results[qi].Forecast = f
			}
		}
		foldSubResults(queries, templates, func(qi, si int) ([]Prediction, error) {
			a := &m.answers[inst[qi][si]]
			return a.preds, a.err
		}, results)
		g.results = results
	}
	return nil
}
