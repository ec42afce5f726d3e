package pilgrim

import (
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// This file is the Prometheus scrape surface. The repo deliberately
// carries no client_golang dependency: the text exposition format
// (version 0.0.4) is a few lines of escaping rules, and every value we
// export is already an atomic counter or a cheap snapshot — a hand-
// rolled writer keeps the server dependency-free and the format under
// test (TestMetricsExpositionContract).

// MetricType is the TYPE annotation of an exposition family.
type MetricType string

// The two types the server exports. (Histograms would need quantile
// state nothing currently tracks; the evaluate latency distribution is
// the obvious future candidate.)
const (
	Counter MetricType = "counter"
	Gauge   MetricType = "gauge"
)

// Label is one exposition label pair.
type Label struct{ Name, Value string }

// Exposition accumulates Prometheus text-format output. Families are
// emitted in first-Add order; HELP/TYPE headers are written once per
// family even when samples with different label sets are added
// interleaved.
type Exposition struct {
	seen  map[string]bool
	order []string
	rows  map[string][]string
	help  map[string]string
	typ   map[string]MetricType
}

// NewExposition returns an empty exposition document.
func NewExposition() *Exposition {
	return &Exposition{
		seen: make(map[string]bool),
		rows: make(map[string][]string),
		help: make(map[string]string),
		typ:  make(map[string]MetricType),
	}
}

// Add appends one sample to the named family. The first Add of a family
// fixes its HELP text and TYPE.
func (e *Exposition) Add(name, help string, typ MetricType, value float64, labels ...Label) {
	if !e.seen[name] {
		e.seen[name] = true
		e.order = append(e.order, name)
		e.help[name] = help
		e.typ[name] = typ
	}
	var row strings.Builder
	row.WriteString(name)
	if len(labels) > 0 {
		row.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				row.WriteByte(',')
			}
			row.WriteString(l.Name)
			row.WriteString(`="`)
			row.WriteString(escapeLabel(l.Value))
			row.WriteByte('"')
		}
		row.WriteByte('}')
	}
	row.WriteByte(' ')
	row.WriteString(formatValue(value))
	e.rows[name] = append(e.rows[name], row.String())
}

// SortFamily sorts the named family's samples — for callers whose rows
// come from map iteration, so scrapes stay deterministic.
func (e *Exposition) SortFamily(name string) {
	sort.Strings(e.rows[name])
}

// Bytes renders the document.
func (e *Exposition) Bytes() []byte {
	var b strings.Builder
	for _, name := range e.order {
		b.WriteString("# HELP ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(e.help[name]))
		b.WriteString("\n# TYPE ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(string(e.typ[name]))
		b.WriteByte('\n')
		for _, row := range e.rows[name] {
			b.WriteString(row)
			b.WriteByte('\n')
		}
	}
	return []byte(b.String())
}

// WriteTo serves the document over HTTP with the exposition content
// type.
func (e *Exposition) WriteTo(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(e.Bytes())
}

// formatValue renders a sample value: integral values print without an
// exponent (the common case — counters), everything else in Go's
// shortest float form, which Prometheus parses.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes HELP text: backslash and newline.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// handleMetrics is the Prometheus scrape endpoint:
//
//	GET /metrics
//
// It exports the same accounting cache_stats serves as JSON —
// forecast-cache hits/misses, worker-pool and evaluate/fork tiers,
// overlay cache, admission control, and (when the registry is
// WAL-backed) durable-store counters — as text-exposition counters and
// gauges, plus the server's shard identity when it runs in a fleet.
// cache_stats remains for compatibility; new scrapers should use this.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := NewExposition()
	WriteServerMetrics(e, s)
	e.WriteTo(w)
}

// WriteServerMetrics appends the server's metric families to e. Split
// out of the handler so the gateway can embed a worker's families in
// tests and tooling can snapshot them without HTTP.
func WriteServerMetrics(e *Exposition, s *Server) {
	cs := s.cache.Load().Stats()
	e.Add("pilgrim_forecast_cache_hits_total", "Forecast cache hits.", Counter, float64(cs.Hits))
	e.Add("pilgrim_forecast_cache_misses_total", "Forecast cache misses (each paid one simulation).", Counter, float64(cs.Misses))
	e.Add("pilgrim_forecast_cache_coalesced_hits_total", "Requests answered by another request's in-flight simulation.", Counter, float64(cs.CoalescedHits))
	e.Add("pilgrim_forecast_cache_entries", "Forecast cache entries currently held.", Gauge, float64(cs.Size))
	e.Add("pilgrim_forecast_cache_capacity", "Forecast cache capacity (-forecast-cache).", Gauge, float64(cs.Capacity))

	ws := s.pool.Load().Stats()
	e.Add("pilgrim_workers", "Configured worker-pool width (-forecast-workers).", Gauge, float64(ws.Workers))
	e.Add("pilgrim_workers_busy", "Batch workers running right now.", Gauge, float64(ws.Busy))
	e.Add("pilgrim_workers_queued", "Workers waiting for a free pool slot.", Gauge, float64(ws.Queued))
	e.Add("pilgrim_workers_max_busy", "High-water mark of concurrently running workers.", Gauge, float64(ws.MaxBusy))
	e.Add("pilgrim_hypotheses_total", "Hypothesis simulations completed through the pool.", Counter, float64(ws.Hypotheses))
	e.Add("pilgrim_select_fastest_calls_total", "select_fastest calls served.", Counter, float64(ws.Batches))
	e.Add("pilgrim_evaluate_calls_total", "Evaluate batches fanned over the pool.", Counter, float64(ws.EvaluateCalls))
	e.Add("pilgrim_evaluate_cells_total", "Scenario×query cells requested by evaluate batches.", Counter, float64(ws.EvaluateCells))
	e.Add("pilgrim_evaluate_group_runs_total", "Distinct per-snapshot groups run after dedup.", Counter, float64(ws.EvaluateGroupRuns))
	e.Add("pilgrim_evaluate_simulations_total", "Sub-simulations executed by evaluate groups.", Counter, float64(ws.EvaluateSims))
	e.Add("pilgrim_evaluate_fork_total", "Derived evaluate cells by differential tier.", Counter, float64(ws.EvaluateForkReused), Label{"tier", "reused"})
	e.Add("pilgrim_evaluate_fork_total", "", Counter, float64(ws.EvaluateForkRuns), Label{"tier", "forked"})
	e.Add("pilgrim_evaluate_fork_total", "", Counter, float64(ws.EvaluateForkCold), Label{"tier", "cold"})
	e.Add("pilgrim_evaluate_fork_resolved_constraints_total", "Bandwidth constraints re-priced by checkpoint forks.", Counter, float64(ws.EvaluateForkConstraints))

	os := s.overlays.Load().Stats()
	e.Add("pilgrim_overlay_cache_hits_total", "Scenario-overlay cache hits (derived epochs reused).", Counter, float64(os.Hits))
	e.Add("pilgrim_overlay_cache_misses_total", "Scenario-overlay cache misses (fresh ApplyOverlay).", Counter, float64(os.Misses))
	e.Add("pilgrim_overlay_cache_entries", "Derived epochs currently cached.", Gauge, float64(os.Size))

	as := s.admission.Load().Stats()
	e.Add("pilgrim_admission_enabled", "1 when -max-inflight bounds the simulation endpoints.", Gauge, b2f(as.Enabled))
	e.Add("pilgrim_admission_inflight", "Simulation requests currently admitted.", Gauge, float64(as.Inflight))
	e.Add("pilgrim_admission_waiting", "Simulation requests queued for admission.", Gauge, float64(as.Waiting))
	e.Add("pilgrim_admission_admitted_total", "Requests that got an admission slot.", Counter, float64(as.Admitted))
	e.Add("pilgrim_admission_shed_total", "Requests shed with 429 + Retry-After.", Counter, float64(as.Shed))
	e.Add("pilgrim_admission_expired_total", "Requests whose deadline expired while queued (504).", Counter, float64(as.Expired))

	e.Add("pilgrim_platforms", "Platforms registered on this worker.", Gauge, float64(len(s.platforms.Names())))

	if st, ok := s.platforms.StorageStats(); ok {
		e.Add("pilgrim_store_appends_total", "WAL records appended.", Counter, float64(st.Appends))
		e.Add("pilgrim_store_fsyncs_total", "WAL fsyncs issued (see -fsync policy).", Counter, float64(st.Fsyncs))
		e.Add("pilgrim_store_compactions_total", "WAL snapshot compactions.", Counter, float64(st.Compactions))
		e.Add("pilgrim_store_segment_records", "Records in the live WAL segment.", Gauge, float64(st.SegmentRecords))
	}

	if id := s.shard.Load(); id != nil {
		e.Add("pilgrim_shard_info", "Shard identity of this worker (constant 1).", Gauge, 1,
			Label{"shard", id.self}, Label{"workers", strconv.Itoa(id.table.Ring().Len())})
		e.Add("pilgrim_shard_misdirected_total", "Platform requests rejected with 421 (not this shard's platform).", Counter, float64(s.misdirected.Load()))
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
