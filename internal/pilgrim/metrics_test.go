package pilgrim

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platgen"
	"pilgrim/internal/scenario"
	"pilgrim/internal/shard"
	"pilgrim/internal/sim"
)

// promSample matches one exposition sample line: name{labels} value.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|NaN)$`)

// scrapeMetrics fetches /metrics and validates the text exposition
// format 0.0.4 line by line: content type, HELP+TYPE before samples,
// well-formed sample lines. Returns sample values keyed by the full
// sample name (including labels).
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want text/plain; version=0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	typed := map[string]bool{}
	values := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[3] == "" {
				t.Errorf("malformed HELP line: %q", line)
				continue
			}
			families[parts[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 || (parts[3] != "counter" && parts[3] != "gauge") {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			typed[parts[2]] = true
		case line == "":
			t.Error("blank line in exposition output")
		default:
			if !promSample.MatchString(line) {
				t.Errorf("malformed sample line: %q", line)
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				t.Errorf("unparsable value in %q: %v", line, err)
				continue
			}
			full := line[:sp]
			if _, dup := values[full]; dup {
				t.Errorf("duplicate sample %q", full)
			}
			values[full] = v
			name := full
			if i := strings.IndexByte(full, '{'); i >= 0 {
				name = full[:i]
			}
			if !families[name] || !typed[name] {
				t.Errorf("sample %q emitted before its HELP/TYPE headers", name)
			}
		}
	}
	return values
}

// TestMetricsExpositionContract drives the simulation endpoints, then
// scrapes /metrics and checks the document parses as Prometheus text
// format with every expected family, and that the counters agree with
// the traffic just sent. cache_stats must keep answering too — /metrics
// supplements it, compatibility keeps it.
func TestMetricsExpositionContract(t *testing.T) {
	srv, client := newTestServer(t)

	transfers := []TransferRequest{
		{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "graphene-1.nancy.grid5000.fr", Size: 1e8},
	}
	if _, err := client.PredictTransfers("g5k_test", transfers); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.SelectFastest("g5k_test", []Hypothesis{{Transfers: transfers}, {Transfers: transfers}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Evaluate("g5k_test", EvaluateRequest{
		Scenarios: []scenario.Scenario{{Name: "baseline"}},
		Queries:   []EvalQuery{{Kind: QueryPredictTransfers, Transfers: transfers}},
	}); err != nil {
		t.Fatal(err)
	}

	values := scrapeMetrics(t, srv.URL)
	for _, want := range []string{
		"pilgrim_forecast_cache_hits_total",
		"pilgrim_forecast_cache_misses_total",
		"pilgrim_forecast_cache_entries",
		"pilgrim_forecast_cache_capacity",
		"pilgrim_workers",
		"pilgrim_workers_busy",
		"pilgrim_workers_queued",
		"pilgrim_workers_max_busy",
		"pilgrim_hypotheses_total",
		"pilgrim_select_fastest_calls_total",
		"pilgrim_evaluate_calls_total",
		"pilgrim_evaluate_cells_total",
		"pilgrim_evaluate_group_runs_total",
		"pilgrim_evaluate_simulations_total",
		"pilgrim_evaluate_fork_resolved_constraints_total",
		"pilgrim_overlay_cache_hits_total",
		"pilgrim_overlay_cache_misses_total",
		"pilgrim_overlay_cache_entries",
		"pilgrim_admission_enabled",
		"pilgrim_admission_inflight",
		"pilgrim_admission_waiting",
		"pilgrim_admission_admitted_total",
		"pilgrim_admission_shed_total",
		"pilgrim_admission_expired_total",
		"pilgrim_platforms",
		`pilgrim_evaluate_fork_total{tier="reused"}`,
		`pilgrim_evaluate_fork_total{tier="forked"}`,
		`pilgrim_evaluate_fork_total{tier="cold"}`,
	} {
		if _, ok := values[want]; !ok {
			t.Errorf("/metrics missing sample %s", want)
		}
	}

	// The counters must reflect the traffic above.
	if v := values["pilgrim_select_fastest_calls_total"]; v != 1 {
		t.Errorf("select_fastest calls = %v, want 1", v)
	}
	if v := values["pilgrim_hypotheses_total"]; v != 2 {
		t.Errorf("hypotheses = %v, want 2", v)
	}
	if v := values["pilgrim_evaluate_calls_total"]; v != 1 {
		t.Errorf("evaluate calls = %v, want 1", v)
	}
	if v := values["pilgrim_evaluate_cells_total"]; v != 1 {
		t.Errorf("evaluate cells = %v, want 1", v)
	}
	if v := values["pilgrim_platforms"]; v != 1 {
		t.Errorf("platforms = %v, want 1", v)
	}

	// Standalone servers export no shard identity.
	if _, ok := values[`pilgrim_shard_misdirected_total`]; ok {
		t.Error("standalone server exports shard metrics")
	}

	// cache_stats stays live alongside /metrics, and the two surfaces
	// agree on the forecast-cache counters.
	cs, err := client.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	if got := values["pilgrim_forecast_cache_misses_total"]; got != float64(cs.Misses) {
		t.Errorf("metrics misses %v != cache_stats misses %d", got, cs.Misses)
	}

	// Rendering is repeatable: a second Bytes call returns the same
	// document, not the document twice.
	e := NewExposition()
	WriteServerMetrics(e, srv.Config.Handler.(*Server))
	if first, second := e.Bytes(), e.Bytes(); string(first) != string(second) {
		t.Errorf("Exposition.Bytes not repeatable: %d bytes, then %d", len(first), len(second))
	}
}

// TestMetricsShardIdentity checks the shard families appear once the
// server runs as a fleet member, and that misdirected rejections are
// counted.
func TestMetricsShardIdentity(t *testing.T) {
	plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("g5k_test", PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	server := NewServer(reg, nil)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL)
	client.Retry = RetryPolicy{MaxAttempts: 1}

	m := &shard.Map{Workers: []shard.Worker{
		{Name: "self", URL: srv.URL},
		{Name: "other", URL: "http://10.255.0.1:1"},
	}}
	ring, err := shard.NewRing(m)
	if err != nil {
		t.Fatal(err)
	}
	// Find a platform name the ring assigns to the other worker, then
	// install the identity and hit that platform: the server must 421 it
	// and count the rejection.
	foreign := ""
	for i := 0; i < 1000; i++ {
		name := "plat-" + strconv.Itoa(i)
		if ring.Owner(name).Name == "other" {
			foreign = name
			break
		}
	}
	if foreign == "" {
		t.Fatal("no foreign-owned name found in 1000 candidates")
	}
	server.SetShardIdentity("self", shard.NewTable(ring))

	if ring.Owner("g5k_test").Name == "self" {
		if _, err := client.TimelineStats("g5k_test"); err != nil {
			t.Fatalf("owned platform rejected: %v", err)
		}
	}
	_, err = client.TimelineStats(foreign)
	if err == nil || !strings.Contains(err.Error(), "421") {
		t.Fatalf("foreign platform err = %v, want HTTP 421", err)
	}

	values := scrapeMetrics(t, srv.URL)
	if v := values[`pilgrim_shard_info{shard="self",workers="2"}`]; v != 1 {
		t.Errorf("pilgrim_shard_info = %v, want 1", v)
	}
	if v := values["pilgrim_shard_misdirected_total"]; v < 1 {
		t.Errorf("misdirected counter = %v, want >= 1", v)
	}
}
