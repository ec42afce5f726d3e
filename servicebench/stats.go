package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// summary describes a sample of timings: the median, the 99th
// percentile, and the highest standard percentile with at least
// minBeyond samples beyond it.
type summary struct {
	N      int
	P50    float64
	P99    float64
	P99OK  bool    // at least minBeyond samples lie beyond P99
	Tail   float64 // value at TailQ
	TailQ  float64 // 0.999, 0.99, 0.95, 0.9 or 0.5
	Beyond int     // samples strictly after the TailQ rank
}

// tailQuantiles are tried from the highest down.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// rank is the nearest-rank index of quantile q in a sorted sample of n.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// quantile returns the nearest-rank q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))]
}

// summarize sorts xs in place and describes it.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sort.Float64s(xs)
	s.P50 = quantile(xs, 0.5)
	r99 := rank(0.99, len(xs))
	s.P99, s.P99OK = xs[r99], len(xs)-1-r99 >= minBeyond
	for _, q := range tailQuantiles {
		r := rank(q, len(xs))
		if beyond := len(xs) - 1 - r; beyond >= minBeyond || q == 0.5 {
			s.TailQ, s.Tail, s.Beyond = q, xs[r], beyond
			break
		}
	}
	return s
}

// median of xs, sorting a copy; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantile(c, 0.5)
}

// rung is one step of the latency ladder: the median time of a call
// that includes every rung below it.
type rung struct {
	Name   string
	Median float64
}

// ladderSelf turns nested rung medians (outermost first) into self
// times: each rung's median minus the one below, clamped at zero, the
// bottom rung keeping its whole median. When every rung truly contains
// the next, the self times sum to the outermost median; a clamped
// negative difference (a rung measured faster than the work it
// contains) makes the sum overshoot, which residual reports.
func ladderSelf(rungs []rung) (self []float64, residual float64) {
	self = make([]float64, len(rungs))
	sum := 0.0
	for i, r := range rungs {
		v := r.Median
		if i+1 < len(rungs) {
			v -= rungs[i+1].Median
		}
		self[i] = math.Max(0, v)
		sum += self[i]
	}
	if len(rungs) == 0 || rungs[0].Median == 0 {
		return self, 0
	}
	return self, sum/rungs[0].Median - 1
}

// splitWindows cuts a phase of the given length into n equal windows by
// completion time and returns each window's latency samples.
func splitWindows(lat, at []float64, phase float64, n int) [][]float64 {
	byWindow := make([][]float64, n)
	for i, t := range at {
		w := max(0, min(n-1, int(t/phase*float64(n))))
		byWindow[w] = append(byWindow[w], lat[i])
	}
	return byWindow
}

// The wall-clock metrics are read from a measured phase's quiet
// one-second windows: the quietShare of them the hypervisor took the
// least CPU time from, and every other window whose stolen share is
// within quietSlack of the quietest of those. On a steal-free run that
// is every window.
const (
	quietShare = 1.0 / 4
	quietSlack = 0.02
)

// minQuietSamples is the least number of samples the quiet windows
// hold, enough for a 99th percentile with minBeyond samples beyond it.
const minQuietSamples = 100 * minBeyond

// quiet is what the wall-clock metrics read from the quiet windows.
type quiet struct {
	Windows       int     // windows used
	MaxStolen     float64 // the highest stolen share among them
	Samples       int     // latency samples they hold
	Throughput    float64 // median over windows of ops per second of round-trip time, steal removed
	CPUPerOp      float64 // the daemon's CPU microseconds per op; 0 without CPU figures
	P50, P90, P99 float64 // percentiles of their pooled latencies, as measured
}

// quietMetrics cuts a measured phase into one-second windows by
// completion time, secs giving each window's stolen share (stolenSince)
// and the daemon's CPU time, and reads the wall-clock metrics from the
// quiet windows (quietShare, quietSlack), taking in the next-quietest
// while they hold fewer than minQuietSamples samples. On a shared host
// steal slows every window it hits, and how much of a run it hits
// changes from run to run; the quiet windows measure the program.
//
// A window's throughput is its ops per second of round-trip time (with
// one closed-loop client, 1 / mean latency), which leaves the
// benchmark's own checking between requests out, and counts only the
// 1 - stolen share of that time the machine was given: steal adds to
// the total time in proportion, so this keeps a run with no quiet
// second comparable. Percentiles are not corrected: steal arrives in
// slices that stall some requests by a lot, not every request a
// little. The daemon's CPU time per op is taken over the same windows:
// a host busy enough to steal also slows the program through shared
// caches. Without per-second figures the phase is one window,
// uncorrected.
func quietMetrics(lat, at []float64, secs samples) quiet {
	stolen, cpuUS := secs.stolen, secs.cpuUS
	if len(stolen) == 0 {
		stolen, cpuUS = []float64{0}, nil
	}
	byWindow := splitWindows(lat, at, float64(len(stolen)), len(stolen))
	order := make([]int, len(stolen))
	for w := range order {
		order[w] = w
	}
	sort.SliceStable(order, func(i, j int) bool { return stolen[order[i]] < stolen[order[j]] })
	want := int(math.Ceil(quietShare * float64(len(order))))
	limit := stolen[order[want-1]] + quietSlack
	var q quiet
	var tps, pooled []float64
	cpu := 0.0
	for _, w := range order {
		if stolen[w] > limit && len(pooled) >= minQuietSamples {
			break
		}
		q.Windows++
		q.MaxStolen = stolen[w]
		if cpuUS != nil {
			cpu += cpuUS[w]
		}
		xs := byWindow[w]
		if len(xs) == 0 {
			continue
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		tps = append(tps, float64(len(xs))/(sum*(1-stolen[w])/1e3))
		pooled = append(pooled, xs...)
	}
	sort.Float64s(pooled)
	q.Samples = len(pooled)
	q.Throughput = median(tps)
	q.P50, q.P90, q.P99 = quantile(pooled, 0.5), quantile(pooled, 0.9), quantile(pooled, 0.99)
	if cpuUS != nil && q.Samples > 0 {
		q.CPUPerOp = cpu / float64(q.Samples)
	}
	return q
}
