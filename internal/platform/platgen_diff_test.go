package platform_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pilgrim/internal/g5k"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
	"pilgrim/internal/platgen"
	"pilgrim/internal/sim"
)

// Differential tests over randomized platgen platforms: compiled routes
// against the reference resolver, and forecasts across recompilation,
// link-state round trips and timelines.

// randomReference synthesizes a valid Grid'5000-style reference: 2-4
// sites, each with a gateway router, optional aggregation switches, 1-3
// clusters of 2-5 nodes, and a backbone chaining the gateways through an
// optional hub.
func randomReference(rng *rand.Rand) *g5k.Reference {
	ref := &g5k.Reference{Sites: map[string]*g5k.Site{}}
	nSites := 2 + rng.Intn(3)
	var gws []string
	for si := 0; si < nSites; si++ {
		sid := fmt.Sprintf("site%d", si)
		gw := "gw-" + sid
		site := &g5k.Site{
			UID:       sid,
			Gateway:   gw,
			Clusters:  map[string]*g5k.Cluster{},
			Equipment: map[string]*g5k.Equipment{gw: {UID: gw, Kind: "router", BackplaneBps: 4e10}},
		}
		// Aggregation switches with uplinks to the gateway.
		var switches []string
		for wi := 0; wi < rng.Intn(3); wi++ {
			sw := fmt.Sprintf("sw%d-%s", wi, sid)
			site.Equipment[sw] = &g5k.Equipment{
				UID: sw, Kind: "switch", BackplaneBps: 2e10,
				Uplinks: []g5k.Uplink{{To: gw, RateBps: 1e10}},
			}
			switches = append(switches, sw)
		}
		nClusters := 1 + rng.Intn(3)
		for ci := 0; ci < nClusters; ci++ {
			cid := fmt.Sprintf("c%d%s", ci, sid)
			cluster := &g5k.Cluster{
				UID: cid, GFlops: 8 + rng.Float64()*8,
				Nodes: map[string]*g5k.Node{}, NodeClass: "default",
			}
			// All nodes of a cluster plug into one equipment.
			attach := site.Gateway
			if len(switches) > 0 && rng.Intn(2) == 0 {
				attach = switches[rng.Intn(len(switches))]
			}
			rate := []float64{1e9, 1e10}[rng.Intn(2)]
			for ni := 0; ni < 2+rng.Intn(4); ni++ {
				nid := fmt.Sprintf("%s-%d", cid, ni+1)
				cluster.Nodes[nid] = &g5k.Node{
					UID: nid,
					Interfaces: []g5k.Interface{{
						Device: "eth0", RateBps: rate, Switch: attach,
					}},
				}
			}
			site.Clusters[cid] = cluster
		}
		ref.Sites[sid] = site
		gws = append(gws, gw)
	}
	// Backbone: either a gateway chain or a star through a hub.
	if rng.Intn(2) == 0 {
		ref.Hubs = []string{"hub0"}
		for i, gw := range gws {
			ref.Backbone = append(ref.Backbone, &g5k.BackboneLink{
				ID: fmt.Sprintf("bb%d", i), From: gw, To: "hub0",
				RateBps: 1e10, LatencyS: 1e-3 + rng.Float64()*4e-3,
			})
		}
	} else {
		for i := 0; i+1 < len(gws); i++ {
			ref.Backbone = append(ref.Backbone, &g5k.BackboneLink{
				ID: fmt.Sprintf("bb%d", i), From: gws[i], To: gws[i+1],
				RateBps: 1e10, LatencyS: 1e-3 + rng.Float64()*4e-3,
			})
		}
	}
	return ref
}

// requireIdenticalRoute asserts reference and compiled resolution agree
// bit for bit: same links, same order, same directions, same latency bits.
func requireIdenticalRoute(t *testing.T, seed int64, s *platform.Snapshot, a, b string, want platform.Route, got *platform.CompiledRoute) {
	t.Helper()
	if len(want.Links) != len(got.Refs) {
		t.Fatalf("seed %d %s->%s: %d links vs %d refs", seed, a, b, len(want.Links), len(got.Refs))
	}
	for i, u := range want.Links {
		ref := got.Refs[i]
		if s.LinkName(ref.LinkIndex()) != u.Link.ID || ref.Direction() != u.Direction {
			t.Fatalf("seed %d %s->%s hop %d: want %s:%v got %s:%v", seed, a, b, i,
				u.Link.ID, u.Direction, s.LinkName(ref.LinkIndex()), ref.Direction())
		}
	}
	if math.Float64bits(want.Latency) != math.Float64bits(s.RouteLatency(got)) {
		t.Fatalf("seed %d %s->%s: latency bits differ: %v vs %v", seed, a, b, want.Latency, s.RouteLatency(got))
	}
}

// TestSnapshotDifferentialRandomPlatforms is the snapshot-equivalence
// property test: over randomized platgen platforms (both flavours), every
// host-pair route resolved through the compiled Snapshot must be
// bit-identical to the reference resolver (RefRoute), and forecast
// results must be
// bit-identical across (a) an independent recompilation and (b) a
// WithLinkState round trip back to the original values.
func TestSnapshotDifferentialRandomPlatforms(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := randomReference(rng)
		variant := []platgen.Variant{platgen.G5KTest, platgen.G5KCabinets}[seed%2]
		plat, err := platgen.Generate(ref, platgen.Options{Variant: variant})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		snap := plat.Snapshot()

		hosts := plat.Hosts()
		for _, a := range hosts {
			for _, b := range hosts {
				if a == b {
					continue
				}
				want, errW := platform.RefRoute(plat, a.ID, b.ID)
				got, errG := snap.Route(a.ID, b.ID)
				if (errW == nil) != (errG == nil) {
					t.Fatalf("seed %d %s->%s: reference err=%v Snapshot err=%v", seed, a.ID, b.ID, errW, errG)
				}
				if errW != nil {
					continue
				}
				requireIdenticalRoute(t, seed, snap, a.ID, b.ID, want, got)
			}
		}

		// Forecast equivalence: the same workload through the engine on
		// (1) the memoized snapshot, (2) a fresh independent compilation,
		// (3) a WithLinkState round trip — all bit-identical.
		var reqs []pilgrim.TransferRequest
		for k := 0; k < 6 && k < len(hosts)/2; k++ {
			reqs = append(reqs, pilgrim.TransferRequest{
				Src: hosts[rng.Intn(len(hosts))].ID, Dst: hosts[rng.Intn(len(hosts))].ID,
				Size: 1e6 + rng.Float64()*1e9,
			})
		}
		for i := range reqs {
			for reqs[i].Src == reqs[i].Dst {
				reqs[i].Dst = hosts[rng.Intn(len(hosts))].ID
			}
		}
		cfg := sim.DefaultConfig()
		base, err := pilgrim.PredictTransfers(pilgrim.PlatformEntry{Platform: plat, Config: cfg, Snapshot: snap}, reqs, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		recompiled, err := pilgrim.PredictTransfers(pilgrim.PlatformEntry{Platform: plat, Config: cfg, Snapshot: plat.Compile()}, reqs, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Round-trip: revise a few random links, then restore the exact
		// original values.
		var ups, downs []platform.LinkUpdate
		for k := 0; k < 3; k++ {
			li := int32(rng.Intn(snap.NumLinks()))
			name := snap.LinkName(li)
			ups = append(ups, platform.LinkUpdate{Link: name, Bandwidth: 1e6, Latency: 0.05})
			downs = append(downs, platform.LinkUpdate{Link: name, Bandwidth: snap.LinkBandwidth(li), Latency: snap.LinkLatency(li)})
		}
		bumped, err := snap.WithLinkState(ups)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		restored, err := bumped.WithLinkState(downs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		roundTrip, err := pilgrim.PredictTransfers(pilgrim.PlatformEntry{Platform: plat, Config: cfg, Snapshot: restored}, reqs, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range base {
			if math.Float64bits(base[i].Duration) != math.Float64bits(recompiled[i].Duration) {
				t.Fatalf("seed %d transfer %d: recompiled duration %v != %v", seed, i, recompiled[i].Duration, base[i].Duration)
			}
			if math.Float64bits(base[i].Duration) != math.Float64bits(roundTrip[i].Duration) {
				t.Fatalf("seed %d transfer %d: round-trip duration %v != %v", seed, i, roundTrip[i].Duration, base[i].Duration)
			}
		}
	}
}

// obsBatch is one timestamped observation batch of the differential
// stream.
type obsBatch struct {
	t       int64
	updates []platform.LinkUpdate
}

// epochAt returns the directly chained epoch governing time at, where
// direct[i+1] is the epoch published by stream[i] (direct[0] = base).
func epochAt(stream []obsBatch, direct []*platform.Snapshot, at int64) *platform.Snapshot {
	idx := 0
	for i, o := range stream {
		if o.t <= at {
			idx = i + 1
		}
	}
	return direct[idx]
}

// TestTimelineDifferentialRandomPlatforms is the temporal-equivalence
// property test: over randomized platgen platforms, a stream of
// timestamped observation batches folded through a Timeline must yield —
// at every query time — epochs whose simulations are bit-identical to the
// same epochs built directly by chaining Snapshot.WithLinkState. This
// pins the tentpole claim that the timeline is pure bookkeeping: history
// indexing never perturbs the simulated physics.
func TestTimelineDifferentialRandomPlatforms(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		ref := randomReference(rng)
		variant := []platgen.Variant{platgen.G5KTest, platgen.G5KCabinets}[seed%2]
		plat, err := platgen.Generate(ref, platgen.Options{Variant: variant})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		snap := plat.Snapshot()
		hosts := plat.Hosts()
		cfg := sim.DefaultConfig()

		// A fixed transfer workload simulated against every epoch.
		var reqs []pilgrim.TransferRequest
		for k := 0; k < 5; k++ {
			reqs = append(reqs, pilgrim.TransferRequest{
				Src: hosts[rng.Intn(len(hosts))].ID, Dst: hosts[rng.Intn(len(hosts))].ID,
				Size: 1e6 + rng.Float64()*1e9,
			})
		}
		for i := range reqs {
			for reqs[i].Src == reqs[i].Dst {
				reqs[i].Dst = hosts[rng.Intn(len(hosts))].ID
			}
		}

		// Random observation stream: increasing timestamps, random link
		// subsets, bandwidth and/or latency revisions.
		var stream []obsBatch
		now := int64(1000)
		for b := 0; b < 9; b++ {
			now += 10 + int64(rng.Intn(300))
			var ups []platform.LinkUpdate
			for k := 0; k < 1+rng.Intn(4); k++ {
				li := int32(rng.Intn(snap.NumLinks()))
				u := platform.LinkUpdate{Link: snap.LinkName(li), Bandwidth: -1, Latency: -1}
				if rng.Intn(3) != 0 {
					u.Bandwidth = 1e7 + rng.Float64()*1e9
				}
				if rng.Intn(3) == 0 {
					u.Latency = 1e-4 + rng.Float64()*1e-2
				}
				ups = append(ups, u)
			}
			stream = append(stream, obsBatch{t: now, updates: ups})
		}

		// Fold the stream through a timeline (bounded wider than the
		// stream) and, independently, chain epochs by hand.
		tl := platform.NewTimeline(snap, 16)
		direct := []*platform.Snapshot{snap}
		for _, o := range stream {
			if _, err := tl.Append(o.t, fmt.Sprintf("seed%d", seed), o.updates); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			next, err := direct[len(direct)-1].WithLinkState(o.updates)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			direct = append(direct, next)
		}

		predict := func(s *platform.Snapshot) []pilgrim.Prediction {
			out, err := pilgrim.PredictTransfers(pilgrim.PlatformEntry{Platform: plat, Config: cfg, Snapshot: s}, reqs, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return out
		}

		// Query at every observation time, between observations, before
		// the first, and after the last: the timeline must answer the
		// exact same simulated physics as the directly chained epoch.
		ats := []int64{stream[0].t - 1, stream[len(stream)-1].t + 1000}
		for _, o := range stream {
			ats = append(ats, o.t, o.t+5)
		}
		for _, at := range ats {
			got := predict(tl.AtTime(at))
			want := predict(epochAt(stream, direct, at))
			for i := range want {
				if math.Float64bits(got[i].Duration) != math.Float64bits(want[i].Duration) {
					t.Fatalf("seed %d at=%d transfer %d: timeline duration %v != direct %v",
						seed, at, i, got[i].Duration, want[i].Duration)
				}
			}
		}
	}
}
