package platform

import (
	"math"
	"strings"
	"testing"
)

// buildTwoSitePlatform builds a miniature Grid'5000: two sites (ASes),
// each a star of hosts around a gateway router, joined by a backbone.
func buildTwoSitePlatform(t *testing.T) *Platform {
	t.Helper()
	p := New("AS_g5k", RoutingFull)
	root := p.Root()

	lyon, err := root.AddAS("AS_lyon", RoutingFull)
	if err != nil {
		t.Fatal(err)
	}
	nancy, err := root.AddAS("AS_nancy", RoutingFull)
	if err != nil {
		t.Fatal(err)
	}

	for _, site := range []struct {
		as     *AS
		gw     string
		prefix string
	}{
		{lyon, "gw.lyon", "sagittaire"},
		{nancy, "gw.nancy", "graphene"},
	} {
		if _, err := site.as.AddRouter(site.gw); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			name := site.prefix + "-" + string(rune('0'+i))
			if _, err := site.as.AddHost(name, 1e9); err != nil {
				t.Fatal(err)
			}
			l, err := site.as.AddLink(name+"_nic", 125e6, 1e-4, Shared)
			if err != nil {
				t.Fatal(err)
			}
			if err := site.as.AddRoute(name, site.gw, []LinkUse{{Link: l, Direction: Up}}, true); err != nil {
				t.Fatal(err)
			}
		}
		// host<->host routes inside the site via both NICs.
		for i := 1; i <= 3; i++ {
			for j := 1; j <= 3; j++ {
				if i == j {
					continue
				}
				a := site.prefix + "-" + string(rune('0'+i))
				b := site.prefix + "-" + string(rune('0'+j))
				la := p.Link(a + "_nic")
				lb := p.Link(b + "_nic")
				if err := site.as.AddRoute(a, b, []LinkUse{{la, Up}, {lb, Down}}, false); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	bb, err := root.AddLink("bb_lyon_nancy", 1.25e9, 2.25e-3, FullDuplex)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.AddASRoute("AS_lyon", "gw.lyon", "AS_nancy", "gw.nancy",
		[]LinkUse{{bb, Up}}, true); err != nil {
		t.Fatal(err)
	}
	return p
}

// routeOf resolves src->dst on the platform's compiled snapshot and
// expands the result back to builder links.
func routeOf(p *Platform, src, dst string) (Route, error) {
	s := p.Snapshot()
	r, err := s.Route(src, dst)
	if err != nil {
		return Route{}, err
	}
	return Route{Links: s.ExpandRoute(r), Latency: s.RouteLatency(r)}, nil
}

func TestIntraSiteRoute(t *testing.T) {
	p := buildTwoSitePlatform(t)
	r, err := routeOf(p, "sagittaire-1", "sagittaire-2")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != 2 {
		t.Fatalf("route length = %d, want 2", len(r.Links))
	}
	if r.Links[0].Link.ID != "sagittaire-1_nic" || r.Links[1].Link.ID != "sagittaire-2_nic" {
		t.Errorf("unexpected links %v -> %v", r.Links[0].Link.ID, r.Links[1].Link.ID)
	}
	if math.Abs(r.Latency-2e-4) > 1e-12 {
		t.Errorf("latency = %v, want 2e-4", r.Latency)
	}
}

func TestCrossSiteRouteSplicesGateways(t *testing.T) {
	p := buildTwoSitePlatform(t)
	r, err := routeOf(p, "sagittaire-1", "graphene-2")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(r.Links))
	for i, u := range r.Links {
		ids[i] = u.Link.ID
	}
	want := []string{"sagittaire-1_nic", "bb_lyon_nancy", "graphene-2_nic"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Errorf("route = %v, want %v", ids, want)
	}
	if math.Abs(r.Latency-(1e-4+2.25e-3+1e-4)) > 1e-12 {
		t.Errorf("latency = %v", r.Latency)
	}
}

func TestReverseRouteFlipsDirections(t *testing.T) {
	p := buildTwoSitePlatform(t)
	fwd, err := routeOf(p, "sagittaire-1", "graphene-2")
	if err != nil {
		t.Fatal(err)
	}
	rev, err := routeOf(p, "graphene-2", "sagittaire-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(fwd.Links) != len(rev.Links) {
		t.Fatalf("asymmetric lengths %d vs %d", len(fwd.Links), len(rev.Links))
	}
	for i := range fwd.Links {
		f := fwd.Links[i]
		r := rev.Links[len(rev.Links)-1-i]
		if f.Link != r.Link {
			t.Errorf("link mismatch at %d: %s vs %s", i, f.Link.ID, r.Link.ID)
		}
		if f.Link.Policy == FullDuplex && f.Direction != r.Direction.Reverse() {
			t.Errorf("direction not flipped on %s", f.Link.ID)
		}
	}
}

func TestRouteToSelfFails(t *testing.T) {
	p := buildTwoSitePlatform(t)
	if _, err := routeOf(p, "sagittaire-1", "sagittaire-1"); err == nil {
		t.Fatal("expected error for self route")
	}
}

func TestUnknownEndpointFails(t *testing.T) {
	p := buildTwoSitePlatform(t)
	if _, err := routeOf(p, "sagittaire-1", "nonexistent"); err == nil {
		t.Fatal("expected error for unknown endpoint")
	}
}

func TestMissingRouteFails(t *testing.T) {
	p := New("root", RoutingFull)
	a, _ := p.Root().AddHost("a", 1e9)
	b, _ := p.Root().AddHost("b", 1e9)
	_, _ = a, b
	if _, err := routeOf(p, "a", "b"); err == nil {
		t.Fatal("expected error for missing route")
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	p := New("root", RoutingFull)
	if _, err := p.Root().AddHost("x", 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Root().AddHost("x", 1e9); err == nil {
		t.Fatal("duplicate host accepted")
	}
	if _, err := p.Root().AddRouter("x"); err == nil {
		t.Fatal("router with host's name accepted")
	}
	if _, err := p.Root().AddLink("l", 1, 0, Shared); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Root().AddLink("l", 1, 0, Shared); err == nil {
		t.Fatal("duplicate link accepted")
	}
}

func TestInvalidLinkParamsRejected(t *testing.T) {
	p := New("root", RoutingFull)
	if _, err := p.Root().AddLink("bad", -1, 0, Shared); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	if _, err := p.Root().AddLink("bad2", 1, -1, Shared); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestClusterRouting(t *testing.T) {
	p := New("cluster", RoutingCluster)
	as := p.Root()
	if _, err := as.AddRouter("sw"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"n1", "n2", "n3"} {
		if _, err := as.AddHost(n, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	bb, err := as.AddLink("bb", 1.25e9, 1e-5, Shared)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.SetClusterTopology("sw", 125e6, 1e-4, Shared, bb); err != nil {
		t.Fatal(err)
	}

	r, err := routeOf(p, "n1", "n2")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != 3 {
		t.Fatalf("cluster route length = %d, want 3", len(r.Links))
	}
	if r.Links[0].Link.ID != "n1_link" || r.Links[1].Link.ID != "bb" || r.Links[2].Link.ID != "n2_link" {
		t.Errorf("unexpected cluster route %v %v %v",
			r.Links[0].Link.ID, r.Links[1].Link.ID, r.Links[2].Link.ID)
	}
	if r.Links[0].Direction != Up || r.Links[2].Direction != Down {
		t.Errorf("directions wrong: %v, %v", r.Links[0].Direction, r.Links[2].Direction)
	}

	// Host to the cluster router: private link + backbone only.
	r2, err := routeOf(p, "n3", "sw")
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Links) != 2 {
		t.Fatalf("host->router length = %d, want 2", len(r2.Links))
	}
}

func TestClusterRoutingNoBackbone(t *testing.T) {
	p := New("cluster", RoutingCluster)
	as := p.Root()
	if _, err := as.AddRouter("sw"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		if _, err := as.AddHost(n, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.SetClusterTopology("sw", 125e6, 1e-4, Shared, nil); err != nil {
		t.Fatal(err)
	}
	r, err := routeOf(p, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != 2 {
		t.Fatalf("length = %d, want 2 (no backbone)", len(r.Links))
	}
}

func TestFloydRouting(t *testing.T) {
	// Line topology a - m1 - m2 - b with distinct links; Floyd must chain
	// them.
	p := New("floyd", RoutingFloyd)
	as := p.Root()
	for _, n := range []string{"m1", "m2"} {
		if _, err := as.AddRouter(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []string{"a", "b"} {
		if _, err := as.AddHost(n, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	l1, _ := as.AddLink("l1", 1e8, 1e-4, Shared)
	l2, _ := as.AddLink("l2", 1e8, 1e-4, Shared)
	l3, _ := as.AddLink("l3", 1e8, 1e-4, Shared)
	if err := as.AddRoute("a", "m1", []LinkUse{{l1, Up}}, true); err != nil {
		t.Fatal(err)
	}
	if err := as.AddRoute("m1", "m2", []LinkUse{{l2, Up}}, true); err != nil {
		t.Fatal(err)
	}
	if err := as.AddRoute("m2", "b", []LinkUse{{l3, Up}}, true); err != nil {
		t.Fatal(err)
	}

	r, err := routeOf(p, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != 3 {
		t.Fatalf("floyd route length = %d, want 3", len(r.Links))
	}
	if math.Abs(r.Latency-3e-4) > 1e-12 {
		t.Errorf("latency = %v", r.Latency)
	}

	// Reverse direction must also resolve (symmetrical edges).
	rrev, err := routeOf(p, "b", "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rrev.Links) != 3 {
		t.Fatalf("reverse length = %d", len(rrev.Links))
	}
	if rrev.Links[0].Link != l3 || rrev.Links[2].Link != l1 {
		t.Error("reverse path not mirrored")
	}
}

func TestFloydPicksShortestPath(t *testing.T) {
	// Triangle: a-b direct (high latency) vs a-r-b (two low-latency hops).
	p := New("floyd", RoutingFloyd)
	as := p.Root()
	if _, err := as.AddRouter("r"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		if _, err := as.AddHost(n, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	direct, _ := as.AddLink("direct", 1e8, 5e-3, Shared)
	h1, _ := as.AddLink("h1", 1e8, 1e-4, Shared)
	h2, _ := as.AddLink("h2", 1e8, 1e-4, Shared)
	if err := as.AddRoute("a", "b", []LinkUse{{direct, None}}, true); err != nil {
		t.Fatal(err)
	}
	if err := as.AddRoute("a", "r", []LinkUse{{h1, None}}, true); err != nil {
		t.Fatal(err)
	}
	if err := as.AddRoute("r", "b", []LinkUse{{h2, None}}, true); err != nil {
		t.Fatal(err)
	}
	r, err := routeOf(p, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != 2 || r.Links[0].Link != h1 || r.Links[1].Link != h2 {
		ids := []string{}
		for _, u := range r.Links {
			ids = append(ids, u.Link.ID)
		}
		t.Errorf("picked %v, want [h1 h2]", ids)
	}
}

func TestRouteCacheInvalidation(t *testing.T) {
	p := buildTwoSitePlatform(t)
	s := p.Snapshot()
	r1, err := s.Route("sagittaire-1", "sagittaire-2")
	if err != nil {
		t.Fatal(err)
	}
	if r2, _ := p.Snapshot().Route("sagittaire-1", "sagittaire-2"); r2 != r1 {
		t.Fatal("warm route not memoized")
	}
	if _, err := p.Root().AddLink("new", 1e9, 0, Shared); err != nil {
		t.Fatal(err)
	}
	r3, err := p.Snapshot().Route("sagittaire-1", "sagittaire-2")
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatal("route memo not invalidated by mutation")
	}
}

func TestHostProps(t *testing.T) {
	p := New("root", RoutingFull)
	h, _ := p.Root().AddHost("n", 1e9)
	h.Props = map[string]string{"cluster": "sagittaire", "site": "lyon"}
	if h.Prop("cluster") != "sagittaire" {
		t.Error("prop lookup failed")
	}
	if h.Prop("absent") != "" {
		t.Error("absent prop should be empty")
	}
	got := p.HostsWhere("site", "lyon")
	if len(got) != 1 || got[0] != h {
		t.Errorf("HostsWhere = %v", got)
	}
}

func TestSnapshotRouteRejectsDanglingGateway(t *testing.T) {
	p := New("root", RoutingFull)
	root := p.Root()
	a, _ := root.AddAS("A", RoutingFull)
	b, _ := root.AddAS("B", RoutingFull)
	if _, err := a.AddHost("ha", 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddHost("hb", 1e9); err != nil {
		t.Fatal(err)
	}
	l, _ := root.AddLink("l", 1e9, 0, Shared)
	// Gateway name that exists nowhere.
	if err := root.AddASRoute("A", "ghost", "B", "hb", []LinkUse{{l, None}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Snapshot().Route("ha", "hb"); err == nil {
		t.Fatal("route through a dangling gateway resolved")
	}
}

// TestValidatePasses is the positive counterpart of the dangling-gateway
// test: on a well-formed platform every ASroute gateway names a netpoint,
// and every host pair resolves on the snapshot to the reference route.
func TestValidatePasses(t *testing.T) {
	p := buildTwoSitePlatform(t)
	var walk func(as *AS)
	walk = func(as *AS) {
		for key, ar := range as.asRoutes {
			for _, gw := range []string{ar.gwSrc, ar.gwDst} {
				if _, err := p.refAsOf(gw); err != nil {
					t.Errorf("ASroute %s->%s in %q: gateway %q: %v", key.src, key.dst, as.ID, gw, err)
				}
			}
		}
		for _, c := range as.Children() {
			walk(c)
		}
	}
	walk(p.Root())
	s := p.Snapshot()
	for _, a := range p.Hosts() {
		for _, b := range p.Hosts() {
			if a == b {
				continue
			}
			want, err := p.refRoute(a.ID, b.ID)
			if err != nil {
				t.Fatalf("reference %s->%s: %v", a.ID, b.ID, err)
			}
			got, err := s.Route(a.ID, b.ID)
			if err != nil {
				t.Fatalf("snapshot %s->%s: %v", a.ID, b.ID, err)
			}
			requireSameRoute(t, s, want, got, a.ID, b.ID)
		}
	}
}

// TestResolveAllHostPairs resolves every ordered host pair on the compiled
// snapshot — the whole-platform check hierarchical routing makes cheap.
func TestResolveAllHostPairs(t *testing.T) {
	p := buildTwoSitePlatform(t)
	s := p.Snapshot()
	pairs, refs := 0, 0
	for _, a := range p.Hosts() {
		for _, b := range p.Hosts() {
			if a == b {
				continue
			}
			r, err := s.Route(a.ID, b.ID)
			if err != nil {
				t.Fatal(err)
			}
			pairs++
			refs += len(r.Refs)
		}
	}
	// 6 hosts -> 30 ordered pairs.
	if pairs != 30 {
		t.Errorf("pairs = %d, want 30", pairs)
	}
	if avg := float64(refs) / float64(pairs); avg < 2 || avg > 3 {
		t.Errorf("avg route length = %v, implausible", avg)
	}
}

func TestSharingPolicyRoundTrip(t *testing.T) {
	for _, pol := range []SharingPolicy{Shared, FullDuplex, Fatpipe} {
		got, err := ParseSharingPolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("round trip %v failed: %v %v", pol, got, err)
		}
	}
	if _, err := ParseSharingPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestRoutingKindRoundTrip(t *testing.T) {
	for _, k := range []RoutingKind{RoutingFull, RoutingFloyd, RoutingCluster} {
		got, err := ParseRoutingKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ParseRoutingKind("bogus"); err == nil {
		t.Error("bogus routing accepted")
	}
}

func TestDirectionReverse(t *testing.T) {
	if Up.Reverse() != Down || Down.Reverse() != Up || None.Reverse() != None {
		t.Error("Direction.Reverse broken")
	}
}
