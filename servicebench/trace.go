package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"pilgrim/internal/flow"
	"pilgrim/internal/nws"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
	"pilgrim/internal/sim"
	"pilgrim/internal/store"
)

// span is one timed call into a layer. Spans of one input share Req;
// Parent is the span that made the call (-1 for an input's root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once the run ends.
// While off (the untraced warm-up replay) it records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	req   int32
	cur   int32 // parent for spans opened by callbacks (the WAL wrapper)
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	if !t.on {
		t.mu.Unlock()
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perRequest sums each input's spans of the given name, in microseconds,
// over the inputs that made such a call.
func (t *tracer) perRequest(name string) []float64 {
	sums := map[int32]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Req] += float64(s.End-s.Start) / 1e3
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// each returns the duration of every span of the given name, in
// microseconds.
func (t *tracer) each(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// timedStorage is the registry's write-ahead log with its appends and
// compactions traced. Compaction runs on the registry's background
// goroutine, hence the tracer's lock.
type timedStorage struct {
	*store.WAL
	tr *tracer
}

func (s *timedStorage) Append(rec store.Record) error {
	id := s.tr.start("store.append", s.tr.current())
	err := s.WAL.Append(rec)
	s.tr.end(id)
	return err
}

func (s *timedStorage) Compact(st store.State) error {
	id := s.tr.start("store.compact", -1)
	err := s.WAL.Compact(st)
	s.tr.end(id)
	return err
}

func (t *tracer) current() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

func (t *tracer) setCurrent(id int32) {
	t.mu.Lock()
	t.cur = id
	t.mu.Unlock()
}

// memWriter is a reusable in-memory http.ResponseWriter, so the serve
// rung measures the handler and not the benchmark's recorder.
type memWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.h }
func (w *memWriter) WriteHeader(s int) {
	if w.status == 0 {
		w.status = s
	}
}
func (w *memWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}
func (w *memWriter) reset() {
	clear(w.h)
	w.status = 0
	w.body.Reset()
}

// replay is the traced run's in-process side: the same inputs pilgrimd
// receives, replayed through each layer's public functions.
type replay struct {
	bp   *benchPlatform
	tr   *tracer
	wire *wireClient
	srv  *pilgrim.Server // in-process server: the serve rung
	lib  *library        // cache, workers, evaluator and registry rungs
	tl   *platform.Timeline
	bank *nws.Bank
	mw   memWriter

	primed      map[*platform.Snapshot]bool // epochs a simulation has run on
	counters    map[string][]float64
	cacheMisses int // traced forecasts whose cache rung missed
	failed      int
	errs        []string
	flats       [][]float64 // wire answers of the traced inputs
	closers     []func() error
}

// newReplay builds the in-process components. With durable set (the
// observe-forecast workload) both the in-process server's registry and
// the library registry log to write-ahead logs under dir, like the
// daemon; the library's log is traced.
func newReplay(bp *benchPlatform, plat *platform.Platform, wire *wireClient, dir string, durable bool) (*replay, error) {
	rp := &replay{bp: bp, tr: newTracer(), wire: wire, counters: map[string][]float64{}, primed: map[*platform.Snapshot]bool{}, mw: memWriter{h: http.Header{}}}
	newReg := func(name string, traced bool) (*pilgrim.Registry, error) {
		reg := pilgrim.NewRegistry()
		if durable {
			// The traced log compacts every 64 records so compactions fall
			// inside the traced inputs; a compaction's cost depends on the
			// state captured, not on how often it runs.
			every := 256
			if traced {
				every = 64
			}
			w, recovered, err := store.Open(store.Options{Dir: dir + "/" + name, Fsync: store.FsyncNever, CompactEvery: every})
			if err != nil {
				return nil, err
			}
			var s pilgrim.Storage = w
			if traced {
				s = &timedStorage{WAL: w, tr: rp.tr}
			}
			if err := reg.SetStorage(s, recovered); err != nil {
				w.Close()
				return nil, err
			}
			rp.closers = append(rp.closers, reg.Close)
		}
		if err := reg.Add(platformName, pilgrim.PlatformEntry{Platform: plat, Config: bp.cfg}); err != nil {
			return nil, err
		}
		return reg, nil
	}
	srvReg, err := newReg("serve", false)
	if err != nil {
		return nil, err
	}
	rp.srv = pilgrim.NewServer(srvReg, nil)
	libReg, err := newReg("library", true)
	if err != nil {
		rp.close()
		return nil, err
	}
	rp.lib = newLibrary(bp, libReg)
	rp.tl = platform.NewTimeline(bp.snap, platform.DefaultTimelineDepth)
	rp.bank = nws.NewBank(bp.snap.NumLinks())
	return rp, nil
}

func (rp *replay) close() {
	for _, c := range rp.closers {
		_ = c()
	}
}

func (rp *replay) fail(in *Input, err error) {
	rp.failed++
	if len(rp.errs) < 3 {
		rp.errs = append(rp.errs, fmt.Sprintf("traced input %d: %v", in.Index, err))
	}
}

func (rp *replay) count(name string, v float64) { rp.counters[name] = append(rp.counters[name], v) }

// wireSender sends over the wire, each request timed as a "wire" span.
func (rp *replay) wireSender(root int32) sender {
	return func(method, path string, body []byte) ([]byte, error) {
		w := rp.tr.start("wire", root)
		out, err := rp.wire.do(method, path, body)
		rp.tr.end(w)
		return out, err
	}
}

// serveSender sends through the in-process server, each ServeHTTP call
// timed as a span of the given name; building the request stays outside
// it. With allocs set, the call's heap allocations are counted too.
func (rp *replay) serveSender(name string, root int32, allocs *uint64) sender {
	return func(method, path string, body []byte) ([]byte, error) {
		req, err := http.NewRequest(method, "http://localhost"+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		rp.mw.reset()
		var m0, m1 runtime.MemStats
		if allocs != nil {
			runtime.ReadMemStats(&m0)
		}
		s := rp.tr.start(name, root)
		rp.srv.ServeHTTP(&rp.mw, req)
		rp.tr.end(s)
		if allocs != nil {
			runtime.ReadMemStats(&m1)
			*allocs = m1.Mallocs - m0.Mallocs
		}
		if rp.mw.status != http.StatusOK {
			return nil, fmt.Errorf("in-process %s: status %d: %s", path[:min(60, len(path))], rp.mw.status, bytes.TrimSpace(rp.mw.body.Bytes()))
		}
		return rp.mw.body.Bytes(), nil
	}
}

// run replays one input. Untraced (warm-up) it records nothing but
// still checks every answer. Traced, it keeps the wire answer (nil when
// the input failed) for the digest.
func (rp *replay) run(in *Input, traced bool) {
	rp.tr.mu.Lock()
	rp.tr.on = traced
	rp.tr.req = int32(in.Index)
	rp.tr.mu.Unlock()
	root := rp.tr.start("request", -1)
	var flat []float64
	var err error
	switch in.Kind {
	case opPredict, opSelect, opEvaluate:
		flat, err = rp.runRequest(in, root, traced)
	case opCycle:
		flat, err = rp.runCycle(in, root, traced)
	}
	rp.tr.end(root)
	if err != nil {
		rp.fail(in, err)
		flat = nil
	}
	if traced {
		rp.flats = append(rp.flats, flat)
	}
}

func (rp *replay) runRequest(in *Input, root int32, traced bool) ([]float64, error) {
	wireFlat, err := answerVia(rp.bp, in, true, rp.wireSender(root))
	if err != nil {
		return nil, err
	}
	srvFlat, err := answerVia(rp.bp, in, true, rp.serveSender("pilgrim.serve", root, nil))
	if err != nil {
		return nil, err
	}
	if !sameFlat(wireFlat, srvFlat) {
		return nil, fmt.Errorf("in-process server answer differs from the wire answer")
	}
	if in.Kind != opEvaluate {
		// The same request again: the cached answer, allocations counted.
		var allocs uint64
		if _, err := rp.serveSender("pilgrim.serve_hit", root, &allocs)(http.MethodGet, in.Path, nil); err != nil {
			return nil, err
		}
		if traced {
			rp.count("serve_allocs", float64(allocs))
		}
	}

	var libFlat []float64
	switch in.Kind {
	case opPredict:
		libFlat, err = rp.predictLadder(rp.lib.entry(), in.Transfers, root, true, traced)
	case opSelect:
		libFlat, err = rp.selectLadder(in, root)
	case opEvaluate:
		libFlat, err = rp.evaluateLadder(in, root)
	}
	if err != nil {
		return nil, err
	}
	if !sameFlat(wireFlat, libFlat) {
		return nil, fmt.Errorf("wire answer differs from the library answer")
	}
	return wireFlat, nil
}

// predictLadder times the forecast cache, and — when the cache missed,
// so the request's path goes further down — PredictTransfers, RunPlan,
// the routes and one max-min solve of the same transfers in canonical
// order (the order the cache simulates in). Returns the cache's answer.
func (rp *replay) predictLadder(entry pilgrim.PlatformEntry, ts []pilgrim.TransferRequest, root int32, exact, traced bool) ([]float64, error) {
	ctx := context.Background()
	snap := entry.Snapshot
	if !rp.primed[snap] {
		// The first simulation on an epoch builds that epoch's pooled
		// engine; time it on its own so every rung below runs warm.
		rp.primed[snap] = true
		n := rp.tr.start("sim.new_epoch", root)
		res := sim.RunPlan(snap, entry.Config, []sim.PlanQuery{planQuery(ts, canonicalOrder(ts))})
		rp.tr.end(n)
		if res[0].Err != nil {
			return nil, res[0].Err
		}
	}
	cache := rp.lib.cache
	misses := cache.Stats().Misses
	c := rp.tr.start("pilgrim.cache", root)
	preds, err := cache.PredictCtx(ctx, platformName, entry, ts, nil)
	rp.tr.end(c)
	if err != nil {
		return nil, err
	}
	miss := cache.Stats().Misses > misses
	h := rp.tr.start("pilgrim.cache_hit", root)
	_, err = cache.PredictCtx(ctx, platformName, entry, ts, nil)
	rp.tr.end(h)
	if err != nil {
		return nil, err
	}
	flat, err := rp.bp.checkPredictions(ts, preds, exact, nil)
	if err != nil || !miss {
		return flat, err
	}
	if traced {
		rp.cacheMisses++
	}

	order := canonicalOrder(ts)
	canon := make([]pilgrim.TransferRequest, len(ts))
	for pos, i := range order {
		canon[pos] = ts[i]
	}
	q := planQuery(ts, order)
	p := rp.tr.start("pilgrim.predict", root)
	direct, err := pilgrim.PredictTransfers(entry, canon, nil)
	rp.tr.end(p)
	if err != nil {
		return nil, err
	}
	for pos, i := range order {
		if math.Float64bits(direct[pos].Duration) != math.Float64bits(preds[i].Duration) {
			return nil, fmt.Errorf("PredictTransfers in canonical order differs from the cached answer")
		}
	}
	r := rp.tr.start("sim.run", root)
	res := sim.RunPlan(snap, entry.Config, []sim.PlanQuery{q})
	rp.tr.end(r)
	if res[0].Err != nil {
		return nil, res[0].Err
	}

	routes := make([]*platform.CompiledRoute, len(canon))
	rt := rp.tr.start("platform.route", root)
	for i, t := range canon {
		routes[i], err = snap.Route(t.Src, t.Dst)
		if err != nil {
			break
		}
	}
	rp.tr.end(rt)
	if err != nil {
		return nil, err
	}
	sys, nv, nc := buildFlow(snap, entry.Config, routes)
	fs := rp.tr.start("flow.solve", root)
	err = sys.Solve()
	rp.tr.end(fs)
	if err != nil {
		return nil, err
	}
	if traced {
		// Exact solver work counts from a private (unpooled) engine.
		s := sim.NewSnapshotSimulation(snap, entry.Config)
		for _, t := range canon {
			s.AddTransfer(t.Src, t.Dst, t.Size)
		}
		if _, err := s.Run(); err != nil {
			return nil, err
		}
		st := s.Engine().SharingStats()
		rp.count("resharings", float64(st.Resharings))
		rp.count("vars_touched", float64(st.VariablesTouched))
		rp.count("flow_vars", float64(nv))
		rp.count("flow_cnsts", float64(nc))
	}
	return flat, nil
}

func (rp *replay) selectLadder(in *Input, root int32) ([]float64, error) {
	sf := rp.tr.start("pilgrim.select_fastest", root)
	best, results, err := rp.lib.pool.SelectFastestCachedCtx(context.Background(), rp.lib.cache, platformName, rp.lib.entry(), in.Hyps)
	rp.tr.end(sf)
	if err != nil {
		return nil, err
	}
	return rp.bp.checkSelect(in.Hyps, selectAnswer{Best: best, Results: results}, nil)
}

// evaluateLadder times the evaluator on the request, then its parts on
// their own: each scenario's resolve+delta and overlay, each query's
// checkpoint, and a fork for every (scenario, query) cell the
// differential tiers classify as fork.
func (rp *replay) evaluateLadder(in *Input, root int32) ([]float64, error) {
	ev := rp.tr.start("pilgrim.evaluate", root)
	resp, err := rp.lib.eval.EvaluateCtx(context.Background(), platformName, *in.Eval)
	rp.tr.end(ev)
	if err != nil {
		return nil, err
	}
	flat, err := rp.bp.checkEvaluate(in.Eval, resp, nil)
	if err != nil {
		return nil, err
	}
	entry := rp.lib.entry()
	base := entry.Snapshot
	derived := make([]*platform.Snapshot, len(in.Eval.Scenarios))
	deltas := make([]*platform.EpochDelta, len(in.Eval.Scenarios))
	for s := range in.Eval.Scenarios {
		sc := &in.Eval.Scenarios[s]
		rs := rp.tr.start("scenario.resolve", root)
		resolved, err := sc.Resolve(base, nil)
		if err == nil {
			deltas[s] = resolved.Delta(base)
		}
		rp.tr.end(rs)
		if err != nil {
			return nil, err
		}
		ov := rp.tr.start("platform.overlay", root)
		derived[s], err = resolved.Apply(base)
		rp.tr.end(ov)
		if err != nil {
			return nil, err
		}
	}
	for _, eq := range in.Eval.Queries {
		q := planQuery(eq.Transfers, canonicalOrder(eq.Transfers))
		ck := rp.tr.start("sim.checkpoint", root)
		pc := sim.CheckpointPlan(base, entry.Config, q)
		rp.tr.end(ck)
		if pc == nil {
			return nil, fmt.Errorf("checkpoint failed")
		}
		fp := sim.PlanFootprint(base, &q)
		for s := range derived {
			if fp.Classify(deltas[s]) != sim.ClassFork {
				continue
			}
			fk := rp.tr.start("sim.fork", root)
			res, ok := pc.Fork(derived[s])
			rp.tr.end(fk)
			if !ok || res.Err != nil {
				return nil, fmt.Errorf("fork failed: %v", res.Err)
			}
		}
	}
	return flat, nil
}

// runCycle replays one observe-forecast cycle: the three wire requests,
// the same three through the in-process server, then the registry
// observe (with its WAL append), a bare timeline append and forecaster
// bank update, the horizon epoch lookup and both forecasts' ladders.
func (rp *replay) runCycle(in *Input, root int32, traced bool) ([]float64, error) {
	cy := in.Cycle
	wireFlat, err := answerVia(rp.bp, in, false, rp.wireSender(root))
	if err != nil {
		return nil, err
	}
	srvFlat, err := answerVia(rp.bp, in, false, rp.serveSender("pilgrim.serve", root, nil))
	if err != nil {
		return nil, err
	}

	o := rp.tr.start("pilgrim.observe", root)
	rp.tr.setCurrent(o)
	_, err = rp.lib.reg.ObserveLinkState(platformName, cy.Time, "servicebench", cy.Updates)
	rp.tr.setCurrent(-1)
	rp.tr.end(o)
	if err != nil {
		return nil, err
	}
	ta := rp.tr.start("platform.timeline_append", root)
	_, err = rp.tl.Append(cy.Time, "servicebench", cy.Updates)
	rp.tr.end(ta)
	if err != nil {
		return nil, err
	}
	no := rp.tr.start("nws.observe", root)
	for _, u := range cy.Updates {
		li, _ := rp.bp.snap.LinkIndex(u.Link)
		rp.bank.ObserveBandwidth(li, u.Bandwidth)
	}
	rp.tr.end(no)
	nf := rp.tr.start("nws.forecast", root)
	for _, u := range cy.Updates {
		li, _ := rp.bp.snap.LinkIndex(u.Link)
		rp.bank.ForecastBandwidth(li)
	}
	rp.tr.end(nf)

	libFlat, err := rp.predictLadder(rp.lib.entry(), in.Transfers, root, false, traced)
	if err != nil {
		return nil, err
	}
	g := rp.tr.start("pilgrim.get_at", root)
	at, err := rp.lib.reg.GetAt(platformName, cy.Time+horizonAhead)
	rp.tr.end(g)
	if err != nil {
		return nil, err
	}
	ahead, err := rp.predictLadder(at, in.Transfers, root, false, traced)
	if err != nil {
		return nil, err
	}
	libFlat = append(libFlat, ahead...)
	if !sameFlat(wireFlat, srvFlat) || !sameFlat(wireFlat, libFlat) {
		return nil, fmt.Errorf("wire, in-process server and library answers differ")
	}
	return wireFlat, nil
}

// canonicalOrder returns transfer indices sorted by (Src, Dst, Size),
// the order the forecast cache simulates in.
func canonicalOrder(ts []pilgrim.TransferRequest) []int {
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := ts[order[a]], ts[order[b]]
		if x.Src != y.Src {
			return x.Src < y.Src
		}
		if x.Dst != y.Dst {
			return x.Dst < y.Dst
		}
		return x.Size < y.Size
	})
	return order
}

// planQuery is the plan query of the transfers taken in the given order.
func planQuery(ts []pilgrim.TransferRequest, order []int) sim.PlanQuery {
	q := sim.PlanQuery{Transfers: make([]sim.Transfer, len(order))}
	for pos, i := range order {
		q.Transfers[pos] = sim.Transfer{Src: ts[i].Src, Dst: ts[i].Dst, Size: ts[i].Size}
	}
	return q
}

// buildFlow builds the max-min system of the transfers' first sharing
// instant — every flow active at once — the way the engine does: one
// constraint per shared link (per direction on full-duplex links) at
// BandwidthFactor × bandwidth, one variable per flow weighted by its
// inverse RTT and bounded by the TCP window and any fat-pipe link.
func buildFlow(snap *platform.Snapshot, cfg sim.Config, routes []*platform.CompiledRoute) (*flow.System, int, int) {
	sys := flow.NewSystem()
	cnst := map[platform.LinkRef]*flow.Constraint{}
	get := func(ref platform.LinkRef, capacity float64) *flow.Constraint {
		c := cnst[ref]
		if c == nil {
			c = sys.NewConstraint("", capacity)
			cnst[ref] = c
		}
		return c
	}
	for _, r := range routes {
		lat := snap.RouteLatency(r)
		rtt := math.Max(2*cfg.LatencyFactor*lat, cfg.MinRTT)
		bound := 0.0
		if cfg.TCPGamma > 0 {
			bound = cfg.TCPGamma / (2 * math.Max(2*lat, cfg.MinRTT))
		}
		for _, ref := range r.Refs {
			li := ref.LinkIndex()
			if snap.LinkPolicy(li) == platform.Fatpipe {
				if c := snap.LinkBandwidth(li) * cfg.BandwidthFactor; bound == 0 || c < bound {
					bound = c
				}
			}
		}
		v := sys.NewVariable("", 1/rtt, bound)
		for _, ref := range r.Refs {
			li := ref.LinkIndex()
			capacity := snap.LinkBandwidth(li) * cfg.BandwidthFactor
			switch snap.LinkPolicy(li) {
			case platform.Shared:
				_ = sys.Attach(v, get(platform.MakeLinkRef(li, platform.None), capacity))
			case platform.FullDuplex:
				dir := ref.Direction()
				if dir == platform.None {
					dir = platform.Up
				}
				_ = sys.Attach(v, get(platform.MakeLinkRef(li, dir), capacity))
			}
		}
	}
	return sys, len(routes), len(cnst)
}
