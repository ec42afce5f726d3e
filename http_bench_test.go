package pilgrim_bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"pilgrim/internal/pilgrim"
	"pilgrim/internal/stats"
)

// The end-to-end HTTP benchmarks measure the whole serving hot path —
// routing, admission, query parse, cache lookup, response encode — over
// a real net/http round trip, the numbers a deployed pilgrimd actually
// delivers. The hot sub-benchmarks serve in process; the pooled encoders
// themselves are measured against encoding/json by the
// BenchmarkEncode* pairs in internal/pilgrim.

// benchServer builds a pilgrimd-shaped server with g5k_test registered
// and a warm forecast cache in front of an httptest listener.
func benchServer(b *testing.B) (*pilgrim.Server, *httptest.Server) {
	b.Helper()
	setup(b)
	reg := pilgrim.NewRegistry()
	if err := reg.Add("g5k_test", entry); err != nil {
		b.Fatal(err)
	}
	s := pilgrim.NewServer(reg, nil)
	srv := httptest.NewServer(s)
	b.Cleanup(srv.Close)
	return s, srv
}

// benchTransfers30 builds the paper's 30-concurrent-transfers workload
// (same RNG and hosts as BenchmarkPredict30Transfers).
func benchTransfers30() []pilgrim.TransferRequest {
	rng := stats.NewRNG(42)
	hosts := entry.Platform.Hosts()
	idx := rng.Sample(len(hosts), 60)
	var reqs []pilgrim.TransferRequest
	for k := 0; k < 30; k++ {
		reqs = append(reqs, pilgrim.TransferRequest{
			Src: hosts[idx[k]].ID, Dst: hosts[idx[30+k]].ID, Size: 5e8,
		})
	}
	return reqs
}

// benchGet issues one GET and drains the body (keep-alive reuse needs
// the drain; allocations in the client count against the measured path,
// matching what a caller pays).
func benchGet(b *testing.B, client *http.Client, url string) {
	resp, err := client.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// discardResponseWriter is a zero-allocation ResponseWriter for the
// in-process sub-benchmarks: the served bytes are counted and dropped,
// so the measurement is the server's work, not a recorder's buffering.
type discardResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardResponseWriter) Header() http.Header { return w.h }
func (w *discardResponseWriter) WriteHeader(c int)   { w.status = c }
func (w *discardResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// predictURL renders the 30-transfer predict_transfers query.
func predictURL(prefix string) string {
	var sb strings.Builder
	sb.WriteString(prefix + "/pilgrim/predict_transfers/g5k_test?")
	for i, tr := range benchTransfers30() {
		if i > 0 {
			sb.WriteByte('&')
		}
		// 'f' format: %g would print 5e+08, whose '+' decodes as a space
		// in the query string.
		fmt.Fprintf(&sb, "transfer=%s,%s,%s", tr.Src, tr.Dst, strconv.FormatFloat(tr.Size, 'f', -1, 64))
	}
	return sb.String()
}

// serveDirect pushes one request through the full server stack —
// routing, admission, query parse, cache, encode — in process.
func serveDirect(b *testing.B, s *pilgrim.Server, method, url string, body []byte) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		b.Fatal(err)
	}
	w := discardResponseWriter{h: make(http.Header, 4)}
	s.ServeHTTP(&w, req)
	if w.status != 0 && w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
}

// BenchmarkHTTPPredict30 is the paper's typical request (§IV-C2: 30
// concurrent transfers) served through the full HTTP stack with a warm
// forecast cache: the repeated-poll path a resource manager exercises.
// The hot sub-benchmark runs in process (socket and client costs
// excluded; the bench gate holds its allocs/op to the baseline); wire is
// the same request over a real httptest round trip, the deployed
// latency number.
func BenchmarkHTTPPredict30(b *testing.B) {
	s, srv := benchServer(b)
	url := predictURL(srv.URL)
	client := srv.Client()
	benchGet(b, client, url) // warm the cache: steady state is the hit path
	b.Run("hot", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveDirect(b, s, http.MethodGet, url, nil)
		}
	})
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchGet(b, client, url)
		}
	})
}

// BenchmarkHTTPEvaluate30x8 serves an 8-scenario × 30-transfer evaluate
// grid over HTTP with warm caches: decode (pooled scratch), grid dedup,
// cache hits, and the streamed row-by-row encode.
func BenchmarkHTTPEvaluate30x8(b *testing.B) {
	s, srv := benchServer(b)
	links := entry.Platform.Links()
	var body bytes.Buffer
	body.WriteString(`{"scenarios":[{"name":"baseline"}`)
	for i := 1; i < 8; i++ {
		fmt.Fprintf(&body, `,{"name":"deg%d","mutations":[{"op":"scale_link","link":%q,"bandwidth_factor":0.%d}]}`,
			i, links[i%len(links)].ID, i+1)
	}
	body.WriteString(`],"queries":[{"kind":"predict_transfers","transfers":[`)
	for i, tr := range benchTransfers30() {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"src":%q,"dst":%q,"size":%g}`, tr.Src, tr.Dst, tr.Size)
	}
	body.WriteString(`]}]}`)
	url := srv.URL + "/pilgrim/evaluate/g5k_test"
	client := srv.Client()
	post := func() {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // warm the forecast and overlay caches
	b.Run("hot", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveDirect(b, s, http.MethodPost, url, body.Bytes())
		}
	})
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post()
		}
	})
}

// BenchmarkHTTPCoalesced64Clients drives 64 concurrent clients at the
// predict endpoint, rotating the requested size every 64 requests so
// each round is one fresh simulation shared by coalescing (in-flight)
// and the LRU (afterwards): the burst shape the singleflight layer
// exists for.
func BenchmarkHTTPCoalesced64Clients(b *testing.B) {
	s, srv := benchServer(b)
	_ = s
	hosts := entry.Platform.Hosts()
	rng := stats.NewRNG(42)
	idx := rng.Sample(len(hosts), 2)
	base := srv.URL + "/pilgrim/predict_transfers/g5k_test?transfer=" +
		hosts[idx[0]].ID + "," + hosts[idx[1]].ID + ","
	client := srv.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 64
	var counter atomic.Int64
	b.SetParallelism(64)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			round := counter.Add(1) / 64
			benchGet(b, client, fmt.Sprintf("%s%d", base, 100000000+round))
		}
	})
}
