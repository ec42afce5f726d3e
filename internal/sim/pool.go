package sim

import (
	"runtime"
	"sync"

	"pilgrim/internal/platform"
)

// This file implements process-wide engine pooling. A forecast service
// answers every request by building a simulation, running it for a few
// hundred events and throwing it away; at production request rates the
// engine, its event heap, its flow system and all their internal slices
// become pure allocator churn. The pool recycles complete engines per
// (snapshot, configuration): Engine.Reset restarts ids and solver serials
// from zero, so a recycled engine produces bit-identical results to a
// fresh one — pooling is invisible except to the allocator.

// poolKey identifies one engine flavour: one compiled platform epoch plus
// one model configuration. Keying by snapshot (not platform) means a
// link-state update naturally starts a fresh flavour — engines never mix
// constraint capacities from different epochs — and stale epochs age out
// through the flavour-eviction path below.
type poolKey struct {
	snap *platform.Snapshot
	cfg  Config
}

type enginePool struct {
	mu   sync.Mutex
	free []*Engine
}

// The pool is bounded in both dimensions so it can never pin memory
// without limit: at most maxPoolKeys (snapshot, config) flavours are
// retained — a flavour's map key holds the Snapshot alive, so dropping
// stale flavours lets superseded epochs (e.g. a stream of measurement
// updates) be collected — and each flavour parks at most maxFreePerPool
// idle engines (a burst's concurrency high-water mark, not its total).
// Evicted or surplus engines are simply garbage; Acquire falls back to
// NewEngineSnapshot.
const maxPoolKeys = 64

var maxFreePerPool = 4 * runtime.GOMAXPROCS(0)

var (
	poolsMu sync.Mutex
	pools   = make(map[poolKey]*enginePool)
)

// AcquireEngineSnapshot returns a ready-to-use engine for one compiled
// platform epoch, recycled from the process-wide pool when one is
// available. Pass it back with ReleaseEngine when the simulation's
// results have been read.
func AcquireEngineSnapshot(snap *platform.Snapshot, cfg Config) *Engine {
	key := poolKey{snap: snap, cfg: cfg}
	poolsMu.Lock()
	p, ok := pools[key]
	if !ok {
		if len(pools) >= maxPoolKeys {
			// Evict an arbitrary stale flavour; its parked engines (and,
			// if nothing else references it, its platform) become
			// collectable. In-flight engines of that flavour are simply
			// dropped on release (pools[key] == nil there).
			for k := range pools {
				delete(pools, k)
				break
			}
		}
		p = &enginePool{}
		pools[key] = p
	}
	poolsMu.Unlock()

	p.mu.Lock()
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		e.inPool = false
		return e
	}
	p.mu.Unlock()
	e := NewEngineSnapshot(snap, cfg)
	e.pooled = true
	return e
}

// ReleaseEngine resets the engine and returns it to its pool. The caller
// must not use the engine — or any ActivityID it handed out — afterwards.
// Engines that did not come from AcquireEngineSnapshot, and engines already
// released, are ignored, so Release is always safe to call.
func ReleaseEngine(e *Engine) {
	if e == nil || !e.pooled || e.inPool {
		return
	}
	e.Reset()
	key := poolKey{snap: e.snap, cfg: e.cfg}
	poolsMu.Lock()
	p := pools[key]
	poolsMu.Unlock()
	if p == nil {
		return
	}
	p.mu.Lock()
	if len(p.free) < maxFreePerPool {
		e.inPool = true
		p.free = append(p.free, e)
	}
	p.mu.Unlock()
}
