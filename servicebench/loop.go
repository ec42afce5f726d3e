package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// wireClient is one closed-loop caller: it owns a single keep-alive
// connection and waits for each answer before asking again.
type wireClient struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
	// rtt accumulates the time spent in round trips — request sent to
	// body read — so checking answers stays out of measured latency.
	rtt time.Duration
	// seen holds answers already checked, by request path: a repeated
	// GET must be answered byte-identically, which is checked without
	// decoding again (predict-hot's cached answers). It keeps the first
	// seenMax paths only, so workloads that never repeat do not grow it.
	seen map[string]seenAnswer
}

const seenMax = 64

type seenAnswer struct {
	body []byte
	flat []float64
}

func newWireClient(base string) *wireClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &wireClient{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, seen: map[string]seenAnswer{}}
}

func (c *wireClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body, valid until the next call.
// Any status but 200 is an error.
func (c *wireClient) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
		req.Header.Set("Content-Type", "application/json")
	}
	c.buf.Reset()
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	c.rtt += time.Since(start)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := c.buf.Bytes()
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path[:min(len(path), 60)], resp.StatusCode, bytes.TrimSpace(msg))
	}
	return c.buf.Bytes(), nil
}

// run performs one op of input in over the wire and returns its checked,
// flattened answer. exact enables the analytic lone-transfer check. A
// repeated GET is checked against the first answer without decoding.
func (c *wireClient) run(bp *benchPlatform, in *Input, exact bool) ([]float64, error) {
	if in.Kind == opEvaluate || in.Kind == opCycle {
		return answerVia(bp, in, exact, c.do)
	}
	body, err := c.do(http.MethodGet, in.Path, nil)
	if err != nil {
		return nil, err
	}
	if prev, ok := c.seen[in.Path]; ok {
		if !bytes.Equal(prev.body, body) {
			return nil, fmt.Errorf("repeated request answered differently")
		}
		return prev.flat, nil
	}
	flat, err := bp.decodeAnswer(in, body, exact)
	if err == nil && len(c.seen) < seenMax {
		c.seen[in.Path] = seenAnswer{body: append([]byte(nil), body...), flat: flat}
	}
	return flat, err
}

// sender sends one request and returns the answer body, valid until
// the next call; any status but 200 is an error.
type sender func(method, path string, body []byte) ([]byte, error)

// answerVia performs one op of input in through send and returns its
// checked, flattened answer; an observe-forecast cycle is its three
// requests in order.
func answerVia(bp *benchPlatform, in *Input, exact bool, send sender) ([]float64, error) {
	switch in.Kind {
	case opPredict, opSelect:
		body, err := send(http.MethodGet, in.Path, nil)
		if err != nil {
			return nil, err
		}
		return bp.decodeAnswer(in, body, exact)
	case opEvaluate:
		body, err := send(http.MethodPost, in.Path, in.Body)
		if err != nil {
			return nil, err
		}
		return bp.decodeAnswer(in, body, false)
	case opCycle:
		cy := in.Cycle
		body, err := send(http.MethodPost, cy.UpdatePath, cy.UpdateBody)
		if err != nil {
			return nil, err
		}
		if err := checkUpdate(cy, body); err != nil {
			return nil, err
		}
		now := &Input{Kind: opPredict, Transfers: in.Transfers}
		var flat []float64
		for _, path := range []string{in.Path, cy.HorizonPath} {
			body, err := send(http.MethodGet, path, nil)
			if err != nil {
				return nil, err
			}
			f, err := bp.decodeAnswer(now, body, false)
			if err != nil {
				return nil, err
			}
			flat = append(flat, f...)
		}
		return flat, nil
	}
	return nil, fmt.Errorf("unknown input kind %d", in.Kind)
}

// recorder keeps the flattened answers of inputs [from, from+len(flats)).
type recorder struct {
	from  int
	flats [][]float64
}

func (r *recorder) keep(i int, flat []float64) {
	if r == nil || i < r.from || i >= r.from+len(r.flats) {
		return
	}
	r.flats[i-r.from] = flat
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	ok, failed int
	lat        []float64 // round-trip milliseconds per op (summed over an observe cycle's three requests), successful ops only
	at         []float64 // when each op of lat completed, seconds into the phase
	elapsed    time.Duration
	errs       []string // the first few failures
	next       int      // first input index not handed out
}

// closedLoop drives the clients over inputs from index start on (the
// observe-forecast series must be drawn in order, so that workload runs
// one client): each
// client takes the next index, generates the input, runs it and waits
// for the answer before taking another. It stops handing out inputs
// after count inputs (count > 0) or once dur has elapsed (count <= 0).
// The elapsed time ends when the last in-flight op completes.
func closedLoop(clients []*wireClient, gen *generator, bp *benchPlatform, start, count int, dur time.Duration, exact bool, rec *recorder) phase {
	var (
		next   atomic.Int64
		mu     sync.Mutex
		res    phase
		wg     sync.WaitGroup
		t0     = time.Now()
		stopAt = t0.Add(dur)
	)
	next.Store(int64(start))
	for _, c := range clients {
		wg.Add(1)
		go func(c *wireClient) {
			defer wg.Done()
			var lat, at []float64
			var ok, failed int
			var errs []string
			for {
				if count > 0 {
					if next.Load() >= int64(start+count) {
						break
					}
				} else if !time.Now().Before(stopAt) {
					break
				}
				i := int(next.Add(1) - 1)
				if count > 0 && i >= start+count {
					break
				}
				in := gen.Input(i)
				c.rtt = 0
				flat, err := c.run(bp, in, exact)
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, fmt.Sprintf("input %d: %v", i, err))
					}
					continue
				}
				ok++
				lat = append(lat, float64(c.rtt)/float64(time.Millisecond))
				at = append(at, time.Since(t0).Seconds())
				rec.keep(i, flat)
			}
			mu.Lock()
			res.ok += ok
			res.failed += failed
			res.lat = append(res.lat, lat...)
			res.at = append(res.at, at...)
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	res.next = int(next.Load())
	if count > 0 {
		res.next = start + count
	}
	return res
}
