package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
)

// An answer is flattened to the list of forecast values it carries, in
// a fixed order, so that wire and library answers compare bit for bit
// and digest without epoch ids or formatting:
//
//	predict_transfers: durations in request order
//	select_fastest:    best index, then per hypothesis its makespan and
//	                   durations
//	evaluate:          per scenario, per query, the durations
//	observe cycle:     durations at the newest epoch, then at the horizon

// lowerBound is a floor on a transfer's predicted duration that shares
// no code with the simulator: the latency phase (LatencyFactor × route
// latency) plus the size at the best rate the flow could get alone —
// the TCP window bound or the slowest link on its route, whichever is
// lower. Contention only lengthens transfers, and every workload's
// network changes only degrade links, so nominal link values keep it a
// valid floor. A lone transfer on the base epoch runs at exactly this
// rate, so there the bound is also the exact answer.
func (bp *benchPlatform) lowerBound(t pilgrim.TransferRequest) (float64, error) {
	snap := bp.snap
	route, err := snap.Route(t.Src, t.Dst)
	if err != nil {
		return 0, err
	}
	cfg := bp.cfg
	lat := 0.0
	rate := math.Inf(1)
	for _, ref := range route.Refs {
		li := ref.LinkIndex()
		lat += snap.LinkLatency(li)
		rate = math.Min(rate, snap.LinkBandwidth(li)*cfg.BandwidthFactor)
	}
	if cfg.TCPGamma > 0 {
		rtt := math.Max(2*lat, cfg.MinRTT)
		rate = math.Min(rate, cfg.TCPGamma/(2*rtt))
	}
	return cfg.LatencyFactor*lat + t.Size/rate, nil
}

// checkPredictions validates predictions answering ts and appends their
// durations to flat. exact additionally requires a lone transfer on the
// base epoch to match the analytic answer.
func (bp *benchPlatform) checkPredictions(ts []pilgrim.TransferRequest, got []pilgrim.Prediction, exact bool, flat []float64) ([]float64, error) {
	if len(got) != len(ts) {
		return flat, fmt.Errorf("%d predictions for %d transfers", len(got), len(ts))
	}
	for i, p := range got {
		t := ts[i]
		if p.Src != t.Src || p.Dst != t.Dst || p.Size != t.Size {
			return flat, fmt.Errorf("prediction %d answers %s->%s %g, asked %s->%s %g", i, p.Src, p.Dst, p.Size, t.Src, t.Dst, t.Size)
		}
		if math.IsNaN(p.Duration) || math.IsInf(p.Duration, 0) || p.Duration <= 0 {
			return flat, fmt.Errorf("prediction %d: duration %v", i, p.Duration)
		}
		lb, err := bp.lowerBound(t)
		if err != nil {
			return flat, err
		}
		if p.Duration < lb*(1-1e-9) {
			return flat, fmt.Errorf("prediction %d (%s->%s): duration %.9g below the physical floor %.9g", i, t.Src, t.Dst, p.Duration, lb)
		}
		if exact && len(ts) == 1 && math.Abs(p.Duration-lb) > 1e-9*lb {
			return flat, fmt.Errorf("lone transfer %s->%s: duration %.12g, analytic %.12g", t.Src, t.Dst, p.Duration, lb)
		}
		flat = append(flat, p.Duration)
	}
	return flat, nil
}

type selectAnswer struct {
	Best    int                        `json:"best"`
	Results []pilgrim.HypothesisResult `json:"results"`
}

// checkSelect validates a select_fastest answer: one result per
// hypothesis in order, each makespan the longest of its durations, and
// best a hypothesis with the shortest makespan.
func (bp *benchPlatform) checkSelect(hyps []pilgrim.Hypothesis, a selectAnswer, flat []float64) ([]float64, error) {
	if len(a.Results) != len(hyps) {
		return flat, fmt.Errorf("%d results for %d hypotheses", len(a.Results), len(hyps))
	}
	if a.Best < 0 || a.Best >= len(hyps) {
		return flat, fmt.Errorf("best %d out of range", a.Best)
	}
	flat = append(flat, float64(a.Best))
	var err error
	for h, r := range a.Results {
		if r.Index != h {
			return flat, fmt.Errorf("result %d has index %d", h, r.Index)
		}
		flat = append(flat, r.Makespan)
		n := len(flat)
		if flat, err = bp.checkPredictions(hyps[h].Transfers, r.Predictions, false, flat); err != nil {
			return flat, fmt.Errorf("hypothesis %d: %w", h, err)
		}
		longest := 0.0
		for _, d := range flat[n:] {
			longest = math.Max(longest, d)
		}
		if longest != r.Makespan {
			return flat, fmt.Errorf("hypothesis %d: makespan %v, longest duration %v", h, r.Makespan, longest)
		}
		if r.Makespan < a.Results[a.Best].Makespan {
			return flat, fmt.Errorf("best %d (makespan %v) but hypothesis %d is faster (%v)", a.Best, a.Results[a.Best].Makespan, h, r.Makespan)
		}
	}
	return flat, nil
}

// checkEvaluate validates an evaluate answer: every scenario answered
// every query, no cell failed, and each cell's predictions check out.
func (bp *benchPlatform) checkEvaluate(req *pilgrim.EvaluateRequest, resp *pilgrim.EvaluateResponse, flat []float64) ([]float64, error) {
	if len(resp.Scenarios) != len(req.Scenarios) {
		return flat, fmt.Errorf("%d scenario rows for %d scenarios", len(resp.Scenarios), len(req.Scenarios))
	}
	var err error
	for s, row := range resp.Scenarios {
		if row.Error != "" {
			return flat, fmt.Errorf("scenario %d: %s", s, row.Error)
		}
		if row.Name != req.Scenarios[s].Name || len(row.Results) != len(req.Queries) {
			return flat, fmt.Errorf("scenario %d: row %q with %d cells", s, row.Name, len(row.Results))
		}
		for q, cell := range row.Results {
			if cell.Error != "" {
				return flat, fmt.Errorf("scenario %d query %d: %s", s, q, cell.Error)
			}
			if flat, err = bp.checkPredictions(req.Queries[q].Transfers, cell.Predictions, false, flat); err != nil {
				return flat, fmt.Errorf("scenario %d query %d: %w", s, q, err)
			}
		}
	}
	return flat, nil
}

// library answers inputs through the library calls the server makes —
// the forecast cache, the worker pool, the evaluator, the registry — on
// components of its own.
type library struct {
	bp    *benchPlatform
	reg   *pilgrim.Registry
	cache *pilgrim.ForecastCache
	pool  *pilgrim.WorkerPool
	eval  *pilgrim.Evaluator
}

func newLibrary(bp *benchPlatform, reg *pilgrim.Registry) *library {
	l := &library{bp: bp, reg: reg, cache: pilgrim.NewForecastCache(pilgrim.DefaultForecastCacheSize), pool: pilgrim.NewWorkerPool(0)}
	l.eval = &pilgrim.Evaluator{Platforms: reg, Cache: l.cache, Pool: l.pool, Overlays: pilgrim.NewOverlayCache(pilgrim.DefaultOverlayCacheSize)}
	return l
}

func (l *library) entry() pilgrim.PlatformEntry {
	e, _ := l.reg.Get(platformName)
	return e
}

// answer computes in's answer and returns it checked and flattened.
func (l *library) answer(in *Input) ([]float64, error) {
	ctx := context.Background()
	switch in.Kind {
	case opPredict:
		preds, err := l.cache.PredictCtx(ctx, platformName, l.entry(), in.Transfers, nil)
		if err != nil {
			return nil, err
		}
		return l.bp.checkPredictions(in.Transfers, preds, true, nil)
	case opSelect:
		best, results, err := l.pool.SelectFastestCachedCtx(ctx, l.cache, platformName, l.entry(), in.Hyps)
		if err != nil {
			return nil, err
		}
		return l.bp.checkSelect(in.Hyps, selectAnswer{Best: best, Results: results}, nil)
	case opEvaluate:
		resp, err := l.eval.EvaluateCtx(ctx, platformName, *in.Eval)
		if err != nil {
			return nil, err
		}
		return l.bp.checkEvaluate(in.Eval, resp, nil)
	case opCycle:
		c := in.Cycle
		if _, err := l.reg.ObserveLinkState(platformName, c.Time, "servicebench", c.Updates); err != nil {
			return nil, err
		}
		return l.cycleForecasts(in)
	}
	return nil, fmt.Errorf("unknown input kind %d", in.Kind)
}

// cycleForecasts answers a cycle's two forecasts after its observation
// has been applied.
func (l *library) cycleForecasts(in *Input) ([]float64, error) {
	ctx := context.Background()
	now, err := l.cache.PredictCtx(ctx, platformName, l.entry(), in.Transfers, nil)
	if err != nil {
		return nil, err
	}
	flat, err := l.bp.checkPredictions(in.Transfers, now, false, nil)
	if err != nil {
		return nil, err
	}
	at, err := l.reg.GetAt(platformName, in.Cycle.Time+horizonAhead)
	if err != nil {
		return nil, err
	}
	ahead, err := l.cache.PredictCtx(ctx, platformName, at, in.Transfers, nil)
	if err != nil {
		return nil, err
	}
	return l.bp.checkPredictions(in.Transfers, ahead, false, flat)
}

// decodeAnswer parses and checks a wire response body for in, returning
// it flattened. exact enables the analytic lone-transfer check, valid on
// the base epoch.
func (bp *benchPlatform) decodeAnswer(in *Input, body []byte, exact bool) ([]float64, error) {
	switch in.Kind {
	case opPredict:
		var preds []pilgrim.Prediction
		if err := json.Unmarshal(body, &preds); err != nil {
			return nil, fmt.Errorf("decoding predictions: %w", err)
		}
		return bp.checkPredictions(in.Transfers, preds, exact, nil)
	case opSelect:
		var a selectAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, fmt.Errorf("decoding select_fastest: %w", err)
		}
		return bp.checkSelect(in.Hyps, a, nil)
	case opEvaluate:
		var resp pilgrim.EvaluateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("decoding evaluate: %w", err)
		}
		return bp.checkEvaluate(in.Eval, &resp, nil)
	}
	return nil, fmt.Errorf("input kind %d has no single-response answer", in.Kind)
}

// checkUpdate validates an update_links answer.
func checkUpdate(c *Cycle, body []byte) error {
	var resp pilgrim.UpdateLinksResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding update_links: %w", err)
	}
	if resp.Updated != len(c.Updates) || resp.Time != c.Time || resp.Platform != platformName {
		return fmt.Errorf("update_links answered %d links at t=%d on %q, sent %d at t=%d", resp.Updated, resp.Time, resp.Platform, len(c.Updates), c.Time)
	}
	return nil
}

// sameFlat reports whether two flattened answers are bit-identical.
func sameFlat(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// digest hashes a run of flattened answers, in input order.
func digest(flats [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range flats {
		for _, v := range f {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// horizonErrors scores one observe-forecast series: for each of its
// first horizonCycles cycles k, the NWS horizon forecast made at t_k for
// t_k+600 s is compared with the forecast on the epoch actually observed
// at t_k+600 s — the newest-epoch forecast of cycle k+10. The error of a
// cycle is |log2| of the ratio of the summed durations. flats holds
// cycle answers from index 0.
func horizonErrors(flats [][]float64) ([]float64, error) {
	lag := horizonAhead / cycleStep
	if len(flats) < horizonCycles+lag {
		return nil, fmt.Errorf("horizon error needs %d cycles, have %d", horizonCycles+lag, len(flats))
	}
	errs := make([]float64, 0, horizonCycles)
	for k := 0; k < horizonCycles; k++ {
		ahead, realized := flats[k], flats[k+lag]
		if ahead == nil || realized == nil {
			return nil, fmt.Errorf("cycle %d or %d unanswered", k, k+lag)
		}
		n := len(ahead) / 2
		var h, r float64
		for j := 0; j < n; j++ {
			h += ahead[n+j]
			r += realized[j]
		}
		errs = append(errs, math.Abs(math.Log2(h/r)))
	}
	return errs, nil
}

// newReferenceRegistry is a memory-only registry serving g5k_test with
// pilgrimd's default configuration.
func newReferenceRegistry(plat *platform.Platform, bp *benchPlatform) (*pilgrim.Registry, error) {
	reg := pilgrim.NewRegistry()
	if err := reg.Add(platformName, pilgrim.PlatformEntry{Platform: plat, Config: bp.cfg}); err != nil {
		return nil, err
	}
	return reg, nil
}
