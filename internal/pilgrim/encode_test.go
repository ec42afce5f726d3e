package pilgrim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platgen"
	"pilgrim/internal/scenario"
	"pilgrim/internal/sim"
	"pilgrim/internal/stats"
	"pilgrim/internal/workflow"
)

// stdJSONBytes renders v exactly as writeJSON does: the byte-identity
// reference for every hot encoder.
func stdJSONBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encoding/json encode: %v", err)
	}
	return buf.Bytes()
}

func hotPredictionBytes(preds []Prediction) ([]byte, bool) {
	e := getEnc()
	defer putEnc(e)
	e.predictions(preds, 0)
	e.raw("\n")
	return append([]byte(nil), e.buf...), e.fallback
}

// awkwardStrings exercise every escaping branch: HTML trio, control
// bytes, named escapes, invalid UTF-8, U+2028/U+2029, multibyte runes.
var awkwardStrings = []string{
	"",
	"plain-host.lyon.grid5000.fr",
	`<script>&"back\slash"</script>`,
	"tab\there\nnewline\rcr\x00nul\x1funit",
	"\b\f",
	"invalid\xff\xfeutf8",
	"line\u2028para\u2029sep",
	"héllo wörld — ünïcode",
	strings.Repeat("x", 300) + "\"",
}

// awkwardFloats exercise both float formats and the exponent cleanup.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 5e8, 1e21, 1e22, -1e21,
	9.999999999999999e20, 1e-6, 9.9e-7, 1e-7, -2.5e-9, 1e-100, 1e100,
	123456.789, math.MaxFloat64, math.SmallestNonzeroFloat64, 3.14159265358979,
}

func TestHotPredictionsMatchEncodingJSON(t *testing.T) {
	cases := [][]Prediction{
		nil,
		{},
		{{Src: "a", Dst: "b", Size: 5e8, Duration: 12.25}},
	}
	var mixed []Prediction
	for i, s := range awkwardStrings {
		mixed = append(mixed, Prediction{
			Src:      s,
			Dst:      awkwardStrings[len(awkwardStrings)-1-i],
			Size:     awkwardFloats[i%len(awkwardFloats)],
			Duration: awkwardFloats[(i*7)%len(awkwardFloats)],
		})
	}
	cases = append(cases, mixed)
	for _, f := range awkwardFloats {
		cases = append(cases, []Prediction{{Src: "s", Dst: "d", Size: f, Duration: -f}})
	}
	for i, preds := range cases {
		got, fallback := hotPredictionBytes(preds)
		if fallback {
			t.Errorf("case %d: unexpected fallback", i)
			continue
		}
		if want := stdJSONBytes(t, preds); !bytes.Equal(got, want) {
			t.Errorf("case %d: hot encoder diverged\nhot:    %q\njson:   %q", i, got, want)
		}
	}
}

func TestHotPredictionsNonFiniteFallsBack(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, fallback := hotPredictionBytes([]Prediction{{Src: "s", Dst: "d", Size: f}})
		if !fallback {
			t.Errorf("float %v: fallback flag not set", f)
		}
	}
}

func TestHotSelectFastestMatchesEncodingJSON(t *testing.T) {
	cases := []struct {
		best    int
		results []HypothesisResult
	}{
		{0, nil},
		{0, []HypothesisResult{}},
		{1, []HypothesisResult{
			{Index: 0, Makespan: 4.5, Predictions: []Prediction{{Src: "a", Dst: "b", Size: 1e9, Duration: 4.5}}},
			{Index: 1, Makespan: 2.25, Predictions: nil},
			{Index: 2, Makespan: 0, Predictions: []Prediction{}},
		}},
	}
	for i, c := range cases {
		e := getEnc()
		e.selectFastestResponse(c.best, c.results)
		got := append([]byte(nil), e.buf...)
		fallback := e.fallback
		putEnc(e)
		if fallback {
			t.Errorf("case %d: unexpected fallback", i)
			continue
		}
		want := stdJSONBytes(t, selectFastestResponse{Best: c.best, Results: c.results})
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: hot encoder diverged\nhot:    %q\njson:   %q", i, got, want)
		}
	}
}

// evaluateResponses is the evaluate shape matrix: every omitempty
// combination the grid can produce, including workflow forecasts (the
// json.Indent re-basing path) and an all-empty row.
func evaluateResponses() []*EvaluateResponse {
	best := 1
	zero := 0
	return []*EvaluateResponse{
		{Platform: "p", Scenarios: nil, Stats: EvaluateStats{Scenarios: 1, Queries: 1, Cells: 1, Groups: 1}},
		{Platform: "p", Scenarios: []ScenarioResult{}},
		{Platform: "<p>&", Scenarios: []ScenarioResult{{}}},
		{Platform: "p", Scenarios: []ScenarioResult{
			{Name: "failed", Error: "scenario <compile> error", Epoch: 0},
			{Name: "ok", Epoch: 42, Provenance: "scale_link(a_nic,0.5)", BackgroundFlows: 3, Results: []EvalResult{
				{},
				{Error: "cell error & detail"},
				{Predictions: []Prediction{{Src: "a", Dst: "b", Size: 5e8, Duration: 1.5}}},
				{Best: &best, Hypotheses: []HypothesisResult{
					{Index: 0, Makespan: 3, Predictions: []Prediction{{Src: "x", Dst: "y", Size: 1, Duration: 3}}},
					{Index: 1, Makespan: 2, Predictions: nil},
				}},
				{Best: &zero, Hypotheses: []HypothesisResult{}},
				{Forecast: &workflow.Forecast{}},
			}},
		}, Stats: EvaluateStats{
			Scenarios: 2, Queries: 6, Cells: 12, Groups: 2, OverlaysReused: 1,
			Simulations: 4, CacheHits: 2, BaseGroups: 1, ForkReused: 1,
			ForkRuns: 2, ForkCold: 1, ForkResolvedConstraints: 17,
		}},
	}
}

func TestHotEvaluateMatchesEncodingJSON(t *testing.T) {
	for i, resp := range evaluateResponses() {
		rec := httptest.NewRecorder()
		writeEvaluate(rec, resp)
		if want := stdJSONBytes(t, resp); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("case %d: hot encoder diverged\nhot:    %q\njson:   %q", i, rec.Body.Bytes(), want)
		}
	}
}

// TestHotEvaluateStreamsLargeGrids pushes a response past the flush
// threshold so the row-by-row streaming path runs, and checks the
// reassembled stream is still byte-identical.
func TestHotEvaluateStreamsLargeGrids(t *testing.T) {
	var rows []ScenarioResult
	preds := make([]Prediction, 40)
	for i := range preds {
		preds[i] = Prediction{Src: "node-" + strings.Repeat("a", i), Dst: "dst", Size: float64(i) * 1e7, Duration: float64(i) / 3}
	}
	for i := 0; i < 200; i++ {
		rows = append(rows, ScenarioResult{Name: "sc", Epoch: uint64(i + 1), Results: []EvalResult{{Predictions: preds}}})
	}
	resp := &EvaluateResponse{Platform: "p", Scenarios: rows, Stats: EvaluateStats{Scenarios: 200, Queries: 1, Cells: 200, Groups: 200}}
	want := stdJSONBytes(t, resp)
	if len(want) < 2*evalFlushThreshold {
		t.Fatalf("test response too small to stream: %d bytes", len(want))
	}
	rec := httptest.NewRecorder()
	writeEvaluate(rec, resp)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("streamed evaluate diverged (%d vs %d bytes)", rec.Body.Len(), len(want))
	}
}

// TestHandlersServeEncodingJSONBytes is the handler-level differential
// table: over real HTTP, predict_transfers, select_fastest and evaluate
// must serve exactly the bytes encoding/json renders for the same
// answer, computed independently through the library.
func TestHandlersServeEncodingJSONBytes(t *testing.T) {
	entry := miniEntry(t)
	reg := NewRegistry()
	if err := reg.Add("g5k_test", entry); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg, nil))
	defer srv.Close()

	const (
		src  = "sagittaire-1.lyon.grid5000.fr"
		dst  = "sagittaire-2.lyon.grid5000.fr"
		dst2 = "sagittaire-3.lyon.grid5000.fr"
	)
	pair := []TransferRequest{{Src: src, Dst: dst, Size: 5e8}}
	hyps := []Hypothesis{{Transfers: pair}, {Transfers: []TransferRequest{{Src: src, Dst: dst2, Size: 5e8}}}}
	preds, err := PredictTransfers(entry, pair, nil)
	if err != nil {
		t.Fatal(err)
	}
	best, results, err := NewWorkerPool(1).SelectFastest(entry, hyps)
	if err != nil {
		t.Fatal(err)
	}
	// Base-epoch and failing scenarios only: derived epochs get
	// process-unique ids, which a second evaluator would not reproduce.
	evalReq := EvaluateRequest{
		Scenarios: []scenario.Scenario{
			{Name: "baseline"},
			{Name: "<bad> & broken", Mutations: []scenario.Mutation{{Op: scenario.OpFailLink, Link: "no-such-link"}}},
		},
		Queries: []EvalQuery{
			{Kind: QueryPredictTransfers, Transfers: pair},
			{Kind: QuerySelectFastest, Hypotheses: hyps},
		},
	}
	evalResp, err := NewServer(reg, nil).evaluator().EvaluateCtx(context.Background(), "g5k_test", evalReq)
	if err != nil {
		t.Fatal(err)
	}
	evalBody, err := json.Marshal(evalReq)
	if err != nil {
		t.Fatal(err)
	}

	// evaluate goes first: its stats count cache hits, so the server's
	// cache must be as fresh as the reference evaluator's.
	cases := []struct {
		name string
		path string
		body []byte // nil: GET
		want any
	}{
		{"evaluate", "/pilgrim/evaluate/g5k_test", evalBody, evalResp},
		{"predict_transfers", "/pilgrim/predict_transfers/g5k_test?transfer=" + src + "," + dst + ",5e8", nil, preds},
		{"select_fastest", "/pilgrim/select_fastest/g5k_test?hypothesis=" + src + "," + dst + ",5e8&hypothesis=" + src + "," + dst2 + ",5e8", nil,
			selectFastestResponse{Best: best, Results: results}},
	}
	for _, c := range cases {
		got := httpBody(t, srv.URL+c.path, c.body)
		if want := stdJSONBytes(t, c.want); !bytes.Equal(got, want) {
			t.Errorf("%s: served bytes differ from encoding/json\nhot:    %q\njson:   %q", c.name, got, want)
		}
	}
}

// httpBody GETs (nil body) or POSTs one URL and returns the response
// body, failing the test on transport or status errors.
func httpBody(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, got)
	}
	return got
}

// FuzzHotPredictionsEncoder fuzzes the prediction encoder against
// encoding/json: arbitrary strings (escaping) and floats (both formats,
// exponent cleanup) must encode byte-identically, and non-finite floats
// must trip the fallback flag.
func FuzzHotPredictionsEncoder(f *testing.F) {
	f.Add("src", "dst", 5e8, 12.5)
	f.Add("<s>& ", "\xff\x00\t", 1e-7, -1e21)
	f.Add("", "", math.Copysign(0, -1), 9.999999999999999e20)
	f.Fuzz(func(t *testing.T, src, dst string, size, duration float64) {
		preds := []Prediction{{Src: src, Dst: dst, Size: size, Duration: duration}}
		got, fallback := hotPredictionBytes(preds)
		if math.IsNaN(size) || math.IsInf(size, 0) || math.IsNaN(duration) || math.IsInf(duration, 0) {
			if !fallback {
				t.Fatalf("non-finite floats must fall back (size=%v duration=%v)", size, duration)
			}
			return
		}
		if fallback {
			t.Fatalf("unexpected fallback for %+v", preds)
		}
		if want := stdJSONBytes(t, preds); !bytes.Equal(got, want) {
			t.Fatalf("hot encoder diverged\nhot:    %q\njson:   %q", got, want)
		}
	})
}

// discardWriter is a ResponseWriter that counts and drops the served
// bytes, so the encoder benchmarks measure encoding, not buffering.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// benchEncoders runs the pooled hot encoder and the encoding/json path
// (writeJSON, also the hot encoder's fallback) over the same response;
// the bench gate requires pooled to beat encoding_json in the same run.
func benchEncoders(b *testing.B, pooled func(http.ResponseWriter), v any) {
	for _, mode := range []struct {
		name  string
		write func(http.ResponseWriter)
	}{
		{"pooled", pooled},
		{"encoding_json", func(w http.ResponseWriter) { writeJSON(w, v) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			w := &discardWriter{h: make(http.Header, 1)}
			mode.write(w) // warm the encoder pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mode.write(w)
			}
		})
	}
}

// benchEntry30 builds the g5k_test platform and the paper's
// 30-concurrent-transfers workload (same RNG and hosts as the root
// BenchmarkPredict30Transfers).
func benchEntry30(b *testing.B) (PlatformEntry, []TransferRequest) {
	b.Helper()
	plat, err := platgen.Generate(g5k.Default(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		b.Fatal(err)
	}
	entry := PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}
	hosts := plat.Hosts()
	idx := stats.NewRNG(42).Sample(len(hosts), 60)
	reqs := make([]TransferRequest, 30)
	for k := range reqs {
		reqs[k] = TransferRequest{Src: hosts[idx[k]].ID, Dst: hosts[idx[30+k]].ID, Size: 5e8}
	}
	return entry, reqs
}

// BenchmarkEncodePredict30 encodes the 30-transfer predict_transfers
// response.
func BenchmarkEncodePredict30(b *testing.B) {
	entry, reqs := benchEntry30(b)
	preds, err := PredictTransfers(entry, reqs, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchEncoders(b, func(w http.ResponseWriter) { writePredictions(w, preds) }, preds)
}

// BenchmarkEncodeEvaluate30x8 encodes an 8-scenario × 30-transfer
// evaluate grid (the root BenchmarkHTTPEvaluate30x8 request).
func BenchmarkEncodeEvaluate30x8(b *testing.B) {
	entry, reqs := benchEntry30(b)
	reg := NewRegistry()
	if err := reg.Add("g5k_test", entry); err != nil {
		b.Fatal(err)
	}
	links := entry.Platform.Links()
	req := EvaluateRequest{
		Scenarios: []scenario.Scenario{{Name: "baseline"}},
		Queries:   []EvalQuery{{Kind: QueryPredictTransfers, Transfers: reqs}},
	}
	for i := 1; i < 8; i++ {
		req.Scenarios = append(req.Scenarios, scenario.Scenario{
			Name: fmt.Sprintf("deg%d", i),
			Mutations: []scenario.Mutation{{
				Op: scenario.OpScaleLink, Link: links[i%len(links)].ID, BandwidthFactor: float64(i+1) / 10,
			}},
		})
	}
	resp, err := NewServer(reg, nil).evaluator().EvaluateCtx(context.Background(), "g5k_test", req)
	if err != nil {
		b.Fatal(err)
	}
	benchEncoders(b, func(w http.ResponseWriter) { writeEvaluate(w, resp) }, resp)
}
