package platform

import "fmt"

// This file keeps the original string-keyed route resolver as a test
// oracle for Snapshot.Route. It walks the builder's AS tree by name and
// memoizes nothing, so it shares with the compiled resolver only the
// builder tables and the Floyd next-hop matrix (itself pinned by
// TestBuildFloydMatchesMapReference). export_test.go exposes it to the
// external differential tests as RefRoute.

// refRoute resolves the end-to-end route between two hosts (or routers)
// anywhere on the platform, walking the AS hierarchy exactly the way
// SimGrid's hierarchical routing does:
//
//  1. find the deepest common ancestor AS of src and dst;
//  2. inside that AS, resolve the local route between the two netpoints
//     representing src and dst (the points themselves if local, their
//     enclosing child ASes otherwise);
//  3. when an endpoint is a child AS, recurse from the endpoint to that
//     AS's gateway for the chosen AS-level route, and splice.
func (p *Platform) refRoute(src, dst string) (Route, error) {
	if src == dst {
		return Route{}, fmt.Errorf("platform: route from %q to itself", src)
	}
	srcAS, err := p.refAsOf(src)
	if err != nil {
		return Route{}, err
	}
	dstAS, err := p.refAsOf(dst)
	if err != nil {
		return Route{}, err
	}
	return p.refResolve(src, srcAS, dst, dstAS)
}

// refConcat returns the concatenation of routes.
func refConcat(rs ...Route) Route {
	var out Route
	for _, r := range rs {
		out.Links = append(out.Links, r.Links...)
		out.Latency += r.Latency
	}
	return out
}

// refAsOf returns the AS directly containing the named host or router.
func (p *Platform) refAsOf(name string) (*AS, error) {
	if h, ok := p.hosts[name]; ok {
		return h.AS, nil
	}
	if r, ok := p.routers[name]; ok {
		return r.AS, nil
	}
	return nil, fmt.Errorf("platform: unknown endpoint %q", name)
}

// refResolve computes the route between netpoints located in srcAS and dstAS.
func (p *Platform) refResolve(src string, srcAS *AS, dst string, dstAS *AS) (Route, error) {
	if srcAS == dstAS {
		return srcAS.refLocalRoute(src, dst)
	}

	// Find deepest common ancestor and the child branches under it.
	sChain := srcAS.ancestry()
	dChain := dstAS.ancestry()
	common := 0
	for common < len(sChain) && common < len(dChain) && sChain[common] == dChain[common] {
		common++
	}
	if common == 0 {
		return Route{}, fmt.Errorf("platform: %q and %q share no ancestor AS", src, dst)
	}
	ancestor := sChain[common-1]

	// Netpoint names representing src and dst inside the ancestor.
	srcPoint, dstPoint := src, dst
	var srcChild, dstChild *AS
	if common < len(sChain) {
		srcChild = sChain[common]
		srcPoint = srcChild.ID
	}
	if common < len(dChain) {
		dstChild = dChain[common]
		dstPoint = dstChild.ID
	}

	if srcChild == nil && dstChild == nil {
		// Both directly in ancestor — handled by srcAS == dstAS above.
		return ancestor.refLocalRoute(src, dst)
	}

	ar, ok := ancestor.asRoutes[pairKey{srcPoint, dstPoint}]
	if !ok {
		return Route{}, fmt.Errorf("platform: no ASroute %s->%s in AS %q (for %s->%s)",
			srcPoint, dstPoint, ancestor.ID, src, dst)
	}

	middle := Route{Links: ar.links, Latency: ar.latency}

	var head, tail Route
	var err error
	if srcChild != nil && src != ar.gwSrc {
		gwAS, gerr := p.refAsOf(ar.gwSrc)
		if gerr != nil {
			return Route{}, fmt.Errorf("platform: gateway %q of ASroute %s->%s: %v", ar.gwSrc, srcPoint, dstPoint, gerr)
		}
		head, err = p.refResolve(src, srcAS, ar.gwSrc, gwAS)
		if err != nil {
			return Route{}, err
		}
	}
	if dstChild != nil && dst != ar.gwDst {
		gwAS, gerr := p.refAsOf(ar.gwDst)
		if gerr != nil {
			return Route{}, fmt.Errorf("platform: gateway %q of ASroute %s->%s: %v", ar.gwDst, srcPoint, dstPoint, gerr)
		}
		tail, err = p.refResolve(ar.gwDst, gwAS, dst, dstAS)
		if err != nil {
			return Route{}, err
		}
	}
	return refConcat(head, middle, tail), nil
}

// refLocalRoute resolves a route between two netpoints of this AS according
// to its routing kind.
func (as *AS) refLocalRoute(src, dst string) (Route, error) {
	switch as.Routing {
	case RoutingFull:
		r, ok := as.routes[pairKey{src, dst}]
		if !ok {
			return Route{}, fmt.Errorf("platform: no route %s->%s in Full AS %q", src, dst, as.ID)
		}
		return r, nil
	case RoutingFloyd:
		return as.refFloydRoute(src, dst)
	case RoutingCluster:
		return as.refClusterRoute(src, dst)
	default:
		return Route{}, fmt.Errorf("platform: AS %q has unsupported routing", as.ID)
	}
}

// refClusterRoute computes the implicit route of a Cluster AS.
func (as *AS) refClusterRoute(src, dst string) (Route, error) {
	var r Route
	up, isHostSrc := as.clusterPrivate[src]
	if isHostSrc {
		r.Links = append(r.Links, LinkUse{Link: up, Direction: Up})
		r.Latency += up.Latency
	} else if src != as.clusterRouter {
		return Route{}, fmt.Errorf("platform: %q not in cluster AS %q", src, as.ID)
	}
	if as.clusterBB != nil {
		r.Links = append(r.Links, LinkUse{Link: as.clusterBB, Direction: None})
		r.Latency += as.clusterBB.Latency
	}
	down, isHostDst := as.clusterPrivate[dst]
	if isHostDst {
		r.Links = append(r.Links, LinkUse{Link: down, Direction: Down})
		r.Latency += down.Latency
	} else if dst != as.clusterRouter {
		return Route{}, fmt.Errorf("platform: %q not in cluster AS %q", dst, as.ID)
	}
	return r, nil
}

// refFloydRoute computes shortest paths (by latency, then hop count) over the
// declared edges, building the all-pairs table on first use.
func (as *AS) refFloydRoute(src, dst string) (Route, error) {
	if !as.floydBuilt {
		as.buildFloyd()
	}
	si, ok := as.floydIdx[src]
	if !ok {
		return Route{}, fmt.Errorf("platform: %q unknown in Floyd AS %q", src, as.ID)
	}
	di, ok := as.floydIdx[dst]
	if !ok {
		return Route{}, fmt.Errorf("platform: %q unknown in Floyd AS %q", dst, as.ID)
	}
	// Reconstruct the path from the next-hop matrix.
	n := int32(len(as.floydNames))
	var r Route
	for cur := si; cur != di; {
		next := as.floydNext[cur*n+di]
		if next < 0 {
			return Route{}, fmt.Errorf("platform: no Floyd path %s->%s in AS %q", src, dst, as.ID)
		}
		edge := as.edges[pairKey{as.floydNames[cur], as.floydNames[next]}]
		r.Links = append(r.Links, edge.Links...)
		r.Latency += edge.Latency
		cur = next
	}
	return r, nil
}
