package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"pilgrim/internal/g5k"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
	"pilgrim/internal/platgen"
	"pilgrim/internal/scenario"
	"pilgrim/internal/sim"
)

// platformName is the registered platform every workload targets: the
// paper's detailed Grid'5000 topology (516 hosts, 528 links).
const platformName = "g5k_test"

// Workload names, as given to --workload.
const (
	wlPredictHot      = "predict-hot"
	wlPredictCold     = "predict-cold"
	wlEvaluateWhatIf  = "evaluate-whatif"
	wlObserveForecast = "observe-forecast"
)

var workloads = []string{wlPredictHot, wlPredictCold, wlEvaluateWhatIf, wlObserveForecast}

// Generation parameters. The hot working set is far below the server's
// 256-entry forecast cache; the cold transfer count is log-uniform over
// 1..60 so its mode sits near the paper's 30-transfer question.
const (
	hotQueries       = 16
	hotSelectEvery   = 5 // hot queries 4, 9 and 14 are select_fastest: 13/16 predict
	predictTransfers = 30
	selectHyps       = 8
	selectTransfers  = 8
	maxColdTransfers = 60
	selectShare      = 0.2
	evalScenarios    = 8
	evalQueries      = 4
	cycleLinks       = 8
	cycleStep        = 60  // seconds between observation batches
	horizonAhead     = 600 // seconds: the NWS horizon of each cycle's second forecast
	cycleT0          = 1_700_000_000
)

// opKind is what one generated input asks of the server.
type opKind int

const (
	opPredict opKind = iota
	opSelect
	opEvaluate
	opCycle
)

// Input is one generated request (or, for observe-forecast, one
// update→forecast→horizon-forecast cycle) in its library form and in the
// wire form pilgrimd receives.
type Input struct {
	Index int
	Kind  opKind

	Transfers []pilgrim.TransferRequest // opPredict, and both forecasts of opCycle
	Hyps      []pilgrim.Hypothesis      // opSelect
	Eval      *pilgrim.EvaluateRequest  // opEvaluate
	Cycle     *Cycle                    // opCycle

	Path string // request path and query (GET) or path (POST)
	Body []byte // POST body (opEvaluate)
}

// Cycle is one observe-forecast step: a timestamped batch of link
// observations, then the same forecast at the newest epoch and at the
// NWS horizon epoch t+horizonAhead.
type Cycle struct {
	Time        int64
	Updates     []platform.LinkUpdate
	UpdatePath  string
	UpdateBody  []byte
	HorizonPath string
}

// benchPlatform is the generator's view of the platform: host names
// grouped by cluster (sorted, so generation never depends on map order)
// and the compiled snapshot used for route-based lower bounds.
type benchPlatform struct {
	snap     *platform.Snapshot
	cfg      sim.Config
	clusters [][]string // hosts of each cluster
	site     []string   // site of each cluster
}

// loadPlatform generates g5k_test exactly as pilgrimd does.
func loadPlatform() (*benchPlatform, *platform.Platform, error) {
	plat, err := platgen.Generate(g5k.Default(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		return nil, nil, fmt.Errorf("generating %s: %w", platformName, err)
	}
	snap := plat.Snapshot()
	byCluster := map[string][]string{}
	siteOf := map[string]string{}
	for i := 0; i < snap.NumHosts(); i++ {
		h := snap.HostName(int32(i))
		// cluster-N.site.grid5000.fr
		dash := strings.IndexByte(h, '-')
		dot := strings.IndexByte(h, '.')
		if dash < 0 || dot < dash {
			return nil, nil, fmt.Errorf("unexpected host name %q", h)
		}
		rest := h[dot+1:]
		site := rest[:strings.IndexByte(rest, '.')]
		key := h[:dash] + "." + site
		byCluster[key] = append(byCluster[key], h)
		siteOf[key] = site
	}
	keys := make([]string, 0, len(byCluster))
	for k := range byCluster {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bp := &benchPlatform{snap: snap, cfg: sim.DefaultConfig()}
	for _, k := range keys {
		hosts := byCluster[k]
		sort.Strings(hosts)
		bp.clusters = append(bp.clusters, hosts)
		bp.site = append(bp.site, siteOf[k])
	}
	return bp, plat, nil
}

// rng is a splitmix64 stream: tiny, allocation-free, and seedable per
// input index so concurrent clients generate identical inputs no matter
// which of them draws which index.
type rng struct{ s uint64 }

func newRNG(seed int64, stream, index uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03 ^ index*0xC2B2AE3D27D4EB4F}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// normal is a Box-Muller standard normal draw.
func (r *rng) normal() float64 {
	u := r.float()
	if u < 1e-300 {
		u = 1e-300
	}
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.float())
}

// transfer draws one transfer: a uniformly chosen source host and a
// destination either in the same cluster or on another site (half
// each), so both intra-cluster and cross-site routes are exercised.
// Sizes are log-uniform over 10 MB..1 GB.
func (bp *benchPlatform) transfer(r *rng) pilgrim.TransferRequest {
	ci := r.intn(len(bp.clusters))
	src := bp.clusters[ci][r.intn(len(bp.clusters[ci]))]
	var dst string
	if r.float() < 0.5 {
		for {
			dst = bp.clusters[ci][r.intn(len(bp.clusters[ci]))]
			if dst != src {
				break
			}
		}
	} else {
		for {
			cj := r.intn(len(bp.clusters))
			if bp.site[cj] != bp.site[ci] {
				dst = bp.clusters[cj][r.intn(len(bp.clusters[cj]))]
				break
			}
		}
	}
	size := math.Round(1e7 * math.Pow(100, r.float()))
	return pilgrim.TransferRequest{Src: src, Dst: dst, Size: size}
}

func (bp *benchPlatform) transfers(r *rng, n int) []pilgrim.TransferRequest {
	out := make([]pilgrim.TransferRequest, n)
	for i := range out {
		out[i] = bp.transfer(r)
	}
	return out
}

// generator produces a workload's seeded input stream. Input(i) is a
// pure function of (workload, seed, i) for every workload but
// observe-forecast, whose link series is an AR(1) process and must be
// drawn in index order (its single client does).
type generator struct {
	workload string
	seed     int64
	series   uint64 // observe-forecast: which of the seed's series (0 is the one sent)
	bp       *benchPlatform

	hot []*Input // predict-hot working set

	// observe-forecast: the fixed forecast query, its observed links and
	// the series state.
	obsQuery    []pilgrim.TransferRequest
	obsLinks    []int32
	obsNominal  []float64
	obsLevel    []float64
	obsNoise    []float64
	obsRNG      *rng
	obsNext     int
	obsPredPath string
}

func newGenerator(workload string, seed int64, bp *benchPlatform) (*generator, error) {
	g := &generator{workload: workload, seed: seed, bp: bp}
	switch workload {
	case wlPredictHot:
		for i := 0; i < hotQueries; i++ {
			r := newRNG(seed, 1, uint64(i))
			if i%hotSelectEvery == hotSelectEvery-1 {
				g.hot = append(g.hot, bp.selectInput(r))
			} else {
				g.hot = append(g.hot, bp.predictInput(bp.transfers(r, predictTransfers)))
			}
		}
	case wlPredictCold:
	case wlEvaluateWhatIf:
	case wlObserveForecast:
		g.initObserve()
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloads, ", "))
	}
	return g, nil
}

// Input returns input i of the stream.
func (g *generator) Input(i int) *Input {
	var in *Input
	switch g.workload {
	case wlPredictHot:
		// Round-robin over the working set; inputs share the cached
		// answers, so hand out copies that differ only in Index.
		c := *g.hot[i%len(g.hot)]
		in = &c
	case wlPredictCold:
		r := newRNG(g.seed, 2, uint64(i))
		if r.float() < selectShare {
			in = g.bp.selectInput(r)
		} else {
			n := int(math.Floor(math.Exp(r.float() * math.Log(maxColdTransfers+1))))
			if n < 1 {
				n = 1
			}
			if n > maxColdTransfers {
				n = maxColdTransfers
			}
			in = g.bp.predictInput(g.bp.transfers(r, n))
		}
	case wlEvaluateWhatIf:
		in = g.evaluateInput(i)
	case wlObserveForecast:
		in = g.cycleInput(i)
	}
	in.Index = i
	return in
}

func (bp *benchPlatform) predictInput(ts []pilgrim.TransferRequest) *Input {
	var b strings.Builder
	b.WriteString("/pilgrim/predict_transfers/" + platformName + "?")
	for i, t := range ts {
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteString("transfer=")
		b.WriteString(url.QueryEscape(transferParam(t)))
	}
	return &Input{Kind: opPredict, Transfers: ts, Path: b.String()}
}

func (bp *benchPlatform) selectInput(r *rng) *Input {
	hyps := make([]pilgrim.Hypothesis, selectHyps)
	var b strings.Builder
	b.WriteString("/pilgrim/select_fastest/" + platformName + "?")
	for h := range hyps {
		hyps[h].Transfers = bp.transfers(r, selectTransfers)
		parts := make([]string, len(hyps[h].Transfers))
		for i, t := range hyps[h].Transfers {
			parts[i] = transferParam(t)
		}
		if h > 0 {
			b.WriteByte('&')
		}
		b.WriteString("hypothesis=")
		b.WriteString(url.QueryEscape(strings.Join(parts, ";")))
	}
	return &Input{Kind: opSelect, Hyps: hyps, Path: b.String()}
}

func transferParam(t pilgrim.TransferRequest) string {
	return t.Src + "," + t.Dst + "," + strconv.FormatFloat(t.Size, 'g', -1, 64)
}

// evaluateInput builds request i: four fresh queries (30, 16, 8 and 4
// transfers) under 8 scenarios whose factors are drawn per request, so no
// derived epoch repeats. Scenarios 0-2 scale the bandwidth of links the
// smallest query crosses (fork tier for it), 3-4 scale links no query
// crosses, 5 fails and scales uncrossed links (reuse tier), and 6-7
// raise the latency of links the smallest query crosses (cold tier).
// Every mutation degrades the network, so base-epoch lower bounds stay
// valid.
func (g *generator) evaluateInput(i int) *Input {
	r := newRNG(g.seed, 4, uint64(i))
	snap := g.bp.snap
	crossedAll := map[int32]bool{}
	var crossed, smallest []string
	var queries []pilgrim.EvalQuery
	for q, n := range []int{30, 16, 8, 4} {
		ts := g.bp.transfers(r, n)
		queries = append(queries, pilgrim.EvalQuery{Kind: pilgrim.QueryPredictTransfers, Transfers: ts})
		seen := map[int32]bool{}
		for _, t := range ts {
			route, err := snap.Route(t.Src, t.Dst)
			if err != nil {
				panic(err) // every generated pair is routable on g5k_test
			}
			for _, ref := range route.Refs {
				li := ref.LinkIndex()
				if q == evalQueries-1 && !crossedAll[li] {
					crossed = append(crossed, snap.LinkName(li))
				}
				if q == evalQueries-1 && !seen[li] {
					smallest = append(smallest, snap.LinkName(li))
				}
				seen[li] = true
				crossedAll[li] = true
			}
		}
	}
	// Preferably links only the smallest query crosses; when the larger
	// queries cross all of its links, any of them.
	if len(crossed) == 0 {
		crossed = smallest
	}
	uncrossed := func() string {
		for {
			li := int32(r.intn(snap.NumLinks()))
			if !crossedAll[li] {
				return snap.LinkName(li)
			}
		}
	}
	pick := func() string { return crossed[r.intn(len(crossed))] }
	scs := make([]scenario.Scenario, evalScenarios)
	for s := range scs {
		var m []scenario.Mutation
		switch {
		case s < 3:
			m = []scenario.Mutation{{Op: scenario.OpScaleLink, Link: pick(), BandwidthFactor: 0.3 + 0.6*r.float()}}
		case s < 5:
			m = []scenario.Mutation{{Op: scenario.OpScaleLink, Link: uncrossed(), BandwidthFactor: 0.3 + 0.6*r.float()}}
		case s == 5:
			m = []scenario.Mutation{
				{Op: scenario.OpFailLink, Link: uncrossed()},
				{Op: scenario.OpScaleLink, Link: uncrossed(), BandwidthFactor: 0.3 + 0.6*r.float()},
			}
		case s == 6:
			link := pick()
			lat := snap.LinkLatency(mustLink(snap, link)) * (1.5 + r.float())
			m = []scenario.Mutation{{Op: scenario.OpSetLink, Link: link, Latency: &lat}}
		default:
			m = []scenario.Mutation{{Op: scenario.OpScaleLink, Link: pick(), LatencyFactor: 1.5 + r.float()}}
		}
		scs[s] = scenario.Scenario{Name: "s" + strconv.Itoa(s), Mutations: m}
	}
	req := &pilgrim.EvaluateRequest{Scenarios: scs, Queries: queries}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs of strings and finite floats always marshal
	}
	return &Input{Kind: opEvaluate, Eval: req, Path: "/pilgrim/evaluate/" + platformName, Body: body}
}

func mustLink(snap *platform.Snapshot, name string) int32 {
	li, ok := snap.LinkIndex(name)
	if !ok {
		panic("unknown link " + name)
	}
	return li
}

// observeSeries is the observe-forecast stream of the seed's series k:
// series 0 is the one the workload sends, the others differ in query,
// observed links and link series alike.
func observeSeries(seed int64, k uint64, bp *benchPlatform) *generator {
	g := &generator{workload: wlObserveForecast, seed: seed, series: k, bp: bp}
	g.initObserve()
	return g
}

// initObserve fixes the series' 30-transfer forecast, sourced from
// cycleLinks hosts whose NICs are the observed links — so every
// transfer's forecast depends on the measured series.
func (g *generator) initObserve() {
	r := newRNG(g.seed, 5, g.series)
	snap := g.bp.snap
	srcs := make([]string, 0, cycleLinks)
	used := map[string]bool{}
	for len(srcs) < cycleLinks {
		ci := r.intn(len(g.bp.clusters))
		h := g.bp.clusters[ci][r.intn(len(g.bp.clusters[ci]))]
		li, ok := snap.LinkIndex(h + "_nic")
		if !ok || used[h] {
			continue
		}
		used[h] = true
		srcs = append(srcs, h)
		g.obsLinks = append(g.obsLinks, li)
		g.obsNominal = append(g.obsNominal, snap.LinkBandwidth(li))
		g.obsLevel = append(g.obsLevel, 0.8)
		g.obsNoise = append(g.obsNoise, 0)
	}
	for i := 0; i < predictTransfers; i++ {
		t := g.bp.transfer(r)
		t.Src = srcs[i%cycleLinks]
		for t.Dst == t.Src || used[t.Dst] {
			t = g.bp.transfer(r)
			t.Src = srcs[i%cycleLinks]
		}
		g.obsQuery = append(g.obsQuery, t)
	}
	g.obsPredPath = g.bp.predictInput(g.obsQuery).Path
	g.obsRNG = newRNG(g.seed, 6, g.series)
}

// cycleInput draws the next observation batch: per link an AR(1)
// deviation (phi 0.8) around a level that occasionally steps to a new
// value, as a fraction of the nominal bandwidth capped at 1 — observed
// bandwidth never exceeds nominal, so nominal lower bounds stay valid.
func (g *generator) cycleInput(i int) *Input {
	if i != g.obsNext {
		panic(fmt.Sprintf("observe-forecast inputs must be drawn in order: want %d, got %d", g.obsNext, i))
	}
	g.obsNext++
	r := g.obsRNG
	t := int64(cycleT0 + cycleStep*i)
	c := &Cycle{Time: t}
	type obs struct {
		Link      string  `json:"link"`
		Bandwidth float64 `json:"bandwidth"`
	}
	body := struct {
		Time    int64  `json:"time"`
		Source  string `json:"source"`
		Updates []obs  `json:"updates"`
	}{Time: t, Source: "servicebench"}
	for k, li := range g.obsLinks {
		if r.float() < 0.03 {
			g.obsLevel[k] = 0.3 + 0.7*r.float()
		}
		g.obsNoise[k] = 0.8*g.obsNoise[k] + 0.08*r.normal()
		f := math.Min(1, math.Max(0.05, g.obsLevel[k]+g.obsNoise[k]))
		bw := math.Round(g.obsNominal[k] * f)
		name := g.bp.snap.LinkName(li)
		c.Updates = append(c.Updates, platform.LinkUpdate{Link: name, Bandwidth: bw, Latency: -1})
		body.Updates = append(body.Updates, obs{Link: name, Bandwidth: bw})
	}
	var err error
	c.UpdateBody, err = json.Marshal(body)
	if err != nil {
		panic(err)
	}
	c.UpdatePath = "/pilgrim/update_links/" + platformName
	c.HorizonPath = g.obsPredPath + "&at=" + strconv.FormatInt(t+horizonAhead, 10)
	return &Input{Kind: opCycle, Transfers: g.obsQuery, Cycle: c, Path: g.obsPredPath}
}
