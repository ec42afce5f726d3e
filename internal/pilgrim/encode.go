package pilgrim

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"pilgrim/internal/workflow"
)

// This file is the serving hot path's JSON writer: hand-rolled
// append-style encoders for the three simulation responses
// (predict_transfers, select_fastest, evaluate) over pooled buffers.
// encoding/json costs one reflect walk plus per-field allocations on
// every response; these encoders know the three shapes statically and
// append into a reused buffer instead.
//
// The contract — pinned by the Test*MatchEncodingJSON tables,
// TestHandlersServeEncodingJSONBytes and the fuzz target — is byte
// identity with encoding/json as writeJSON drives it:
//
//	enc := json.NewEncoder(w); enc.SetIndent("", " "); enc.Encode(v)
//
// including the one-space indent ladder, the trailing newline, ES6
// float formatting ('f' inside [1e-6, 1e21), 'e' outside, e-09→e-9
// exponent cleanup), HTML-escaped strings (<, >, & as \u00XX),
// � replacement for invalid UTF-8, and  /  escapes.
// Anything these encoders cannot reproduce exactly — a non-finite
// float, a workflow forecast that fails to marshal — flips the
// buffer's fallback flag and the caller re-encodes through
// encoding/json, so the wire format never forks.

// hotEnc is one pooled encode buffer.
type hotEnc struct {
	buf []byte
	// fallback records an input the hot path must not encode
	// (encoding/json errors on it, or reproducing it exactly is not
	// worth hand-rolling); the caller falls back to encoding/json.
	fallback bool
}

var encPool = sync.Pool{
	New: func() any { return &hotEnc{buf: make([]byte, 0, 4096)} },
}

func getEnc() *hotEnc {
	e := encPool.Get().(*hotEnc)
	e.buf = e.buf[:0]
	e.fallback = false
	return e
}

// putEnc returns a buffer to the pool. Oversized buffers (one huge
// evaluate grid) are dropped instead of pinning their backing arrays.
func putEnc(e *hotEnc) {
	if cap(e.buf) <= 1<<20 {
		encPool.Put(e)
	}
}

// indentSpaces serves nl(); the response shapes nest at most 8 deep,
// far under its length.
const indentSpaces = "                                                                "

// nl appends the indented-encoder line break: newline plus depth
// spaces (SetIndent prefix "", indent " ").
func (e *hotEnc) nl(depth int) {
	e.buf = append(e.buf, '\n')
	e.buf = append(e.buf, indentSpaces[:depth]...)
}

// raw appends literal bytes (punctuation and pre-escaped keys).
func (e *hotEnc) raw(s string) { e.buf = append(e.buf, s...) }

const hexDigits = "0123456789abcdef"

// str appends a JSON string exactly as encoding/json does with HTML
// escaping on (the Encoder default).
func (e *hotEnc) str(s string) {
	dst := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control bytes below 0x20 and the HTML trio <, >, &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\\ufffd"...)
			i += size
			start = i
			continue
		}
		// U+2028/U+2029 break JSONP consumers; encoding/json escapes
		// them unconditionally, so the hot path must too.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	e.buf = append(dst, '"')
}

// f64 appends a float in ES6 number-to-string form (encoding/json's
// floatEncoder): 'f' format inside [1e-6, 1e21), 'e' outside, with the
// two-digit negative exponent collapsed (e-09 → e-9). Non-finite values
// flip the fallback flag — encoding/json rejects them, and the
// caller must reproduce that, not invent a representation.
func (e *hotEnc) f64(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.fallback = true
		e.buf = append(e.buf, '0')
		return
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.buf); n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

func (e *hotEnc) int(n int)       { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }
func (e *hotEnc) uint64(n uint64) { e.buf = strconv.AppendUint(e.buf, n, 10) }

// predictions appends a []Prediction at the given depth. A nil slice is
// null, an empty one [] — exactly encoding/json's distinction.
func (e *hotEnc) predictions(preds []Prediction, depth int) {
	if preds == nil {
		e.raw("null")
		return
	}
	if len(preds) == 0 {
		e.raw("[]")
		return
	}
	e.raw("[")
	for i, p := range preds {
		if i > 0 {
			e.raw(",")
		}
		e.nl(depth + 1)
		e.raw("{")
		e.nl(depth + 2)
		e.raw(`"src": `)
		e.str(p.Src)
		e.raw(",")
		e.nl(depth + 2)
		e.raw(`"dst": `)
		e.str(p.Dst)
		e.raw(",")
		e.nl(depth + 2)
		e.raw(`"size": `)
		e.f64(p.Size)
		e.raw(",")
		e.nl(depth + 2)
		e.raw(`"duration": `)
		e.f64(p.Duration)
		e.nl(depth + 1)
		e.raw("}")
	}
	e.nl(depth)
	e.raw("]")
}

// hypothesisResults appends a []HypothesisResult at the given depth.
func (e *hotEnc) hypothesisResults(results []HypothesisResult, depth int) {
	if results == nil {
		e.raw("null")
		return
	}
	if len(results) == 0 {
		e.raw("[]")
		return
	}
	e.raw("[")
	for i := range results {
		r := &results[i]
		if i > 0 {
			e.raw(",")
		}
		e.nl(depth + 1)
		e.raw("{")
		e.nl(depth + 2)
		e.raw(`"index": `)
		e.int(r.Index)
		e.raw(",")
		e.nl(depth + 2)
		e.raw(`"makespan": `)
		e.f64(r.Makespan)
		e.raw(",")
		e.nl(depth + 2)
		e.raw(`"predictions": `)
		e.predictions(r.Predictions, depth+2)
		e.nl(depth + 1)
		e.raw("}")
	}
	e.nl(depth)
	e.raw("]")
}

// selectFastestResponse appends the whole select_fastest answer plus
// the Encode trailing newline.
func (e *hotEnc) selectFastestResponse(best int, results []HypothesisResult) {
	e.raw("{")
	e.nl(1)
	e.raw(`"best": `)
	e.int(best)
	e.raw(",")
	e.nl(1)
	e.raw(`"results": `)
	e.hypothesisResults(results, 1)
	e.nl(0)
	e.raw("}\n")
}

// field starts one object member at depth, managing the separating
// comma via the caller's first flag.
func (e *hotEnc) field(first *bool, depth int, key string) {
	if !*first {
		e.raw(",")
	}
	*first = false
	e.nl(depth)
	e.raw(key)
}

// forecast appends a *workflow.Forecast through encoding/json — the
// workflow grid is cold (one cell kind, never the QPS path) and its
// schedule shape is owned by the workflow package. json.Indent re-bases
// the compact marshal onto the surrounding ladder: prefix = the
// member's depth, indent = one space, which is exactly how
// encoding/json renders a nested value.
func (e *hotEnc) forecast(f *workflow.Forecast, depth int) {
	compact, err := json.Marshal(f)
	if err != nil {
		e.fallback = true
		e.raw("null")
		return
	}
	var out bytes.Buffer
	if err := json.Indent(&out, compact, indentSpaces[:depth], " "); err != nil {
		e.fallback = true
		e.raw("null")
		return
	}
	e.buf = append(e.buf, out.Bytes()...)
}

// evalResult appends one answer-grid cell at the given depth, honoring
// every omitempty in EvalResult.
func (e *hotEnc) evalResult(r *EvalResult, depth int) {
	if r.Error == "" && len(r.Predictions) == 0 && r.Best == nil &&
		len(r.Hypotheses) == 0 && r.Forecast == nil {
		e.raw("{}")
		return
	}
	e.raw("{")
	first := true
	if r.Error != "" {
		e.field(&first, depth+1, `"error": `)
		e.str(r.Error)
	}
	if len(r.Predictions) > 0 {
		e.field(&first, depth+1, `"predictions": `)
		e.predictions(r.Predictions, depth+1)
	}
	if r.Best != nil {
		e.field(&first, depth+1, `"best": `)
		e.int(*r.Best)
	}
	if len(r.Hypotheses) > 0 {
		e.field(&first, depth+1, `"hypotheses": `)
		e.hypothesisResults(r.Hypotheses, depth+1)
	}
	if r.Forecast != nil {
		e.field(&first, depth+1, `"forecast": `)
		e.forecast(r.Forecast, depth+1)
	}
	e.nl(depth)
	e.raw("}")
}

// scenarioResult appends one scenario row at the given depth.
func (e *hotEnc) scenarioResult(sr *ScenarioResult, depth int) {
	e.raw("{")
	first := true
	if sr.Name != "" {
		e.field(&first, depth+1, `"name": `)
		e.str(sr.Name)
	}
	if sr.Epoch != 0 {
		e.field(&first, depth+1, `"epoch": `)
		e.uint64(sr.Epoch)
	}
	if sr.Provenance != "" {
		e.field(&first, depth+1, `"provenance": `)
		e.str(sr.Provenance)
	}
	if sr.BackgroundFlows != 0 {
		e.field(&first, depth+1, `"background_flows": `)
		e.int(sr.BackgroundFlows)
	}
	if sr.Error != "" {
		e.field(&first, depth+1, `"error": `)
		e.str(sr.Error)
	}
	if len(sr.Results) > 0 {
		e.field(&first, depth+1, `"results": `)
		e.raw("[")
		for i := range sr.Results {
			if i > 0 {
				e.raw(",")
			}
			e.nl(depth + 2)
			e.evalResult(&sr.Results[i], depth+2)
		}
		e.nl(depth + 1)
		e.raw("]")
	}
	if first {
		e.raw("}")
		return
	}
	e.nl(depth)
	e.raw("}")
}

// evaluateStats appends the stats block at the given depth.
func (e *hotEnc) evaluateStats(st *EvaluateStats, depth int) {
	e.raw("{")
	first := true
	e.field(&first, depth+1, `"scenarios": `)
	e.int(st.Scenarios)
	e.field(&first, depth+1, `"queries": `)
	e.int(st.Queries)
	e.field(&first, depth+1, `"cells": `)
	e.int(st.Cells)
	e.field(&first, depth+1, `"groups": `)
	e.int(st.Groups)
	e.field(&first, depth+1, `"overlays_reused": `)
	e.int(st.OverlaysReused)
	e.field(&first, depth+1, `"simulations": `)
	e.int(st.Simulations)
	e.field(&first, depth+1, `"cache_hits": `)
	e.int(st.CacheHits)
	if st.BaseGroups != 0 {
		e.field(&first, depth+1, `"base_groups": `)
		e.int(st.BaseGroups)
	}
	if st.ForkReused != 0 {
		e.field(&first, depth+1, `"fork_reused": `)
		e.int(st.ForkReused)
	}
	if st.ForkRuns != 0 {
		e.field(&first, depth+1, `"fork_runs": `)
		e.int(st.ForkRuns)
	}
	if st.ForkCold != 0 {
		e.field(&first, depth+1, `"fork_cold": `)
		e.int(st.ForkCold)
	}
	if st.ForkResolvedConstraints != 0 {
		e.field(&first, depth+1, `"fork_resolved_constraints": `)
		e.int(st.ForkResolvedConstraints)
	}
	e.nl(depth)
	e.raw("}")
}

// evalFlushThreshold is the streaming high-water mark: while encoding
// an evaluate grid, the buffer is flushed to the client whenever a
// completed scenario row leaves it this full, so a huge grid streams
// row by row instead of materializing wholesale.
const evalFlushThreshold = 64 << 10

// writeHotJSON finishes one hot-path response: on a clean encode the
// pooled buffer goes out in one Write; on fallback encoding/json
// re-renders v from scratch (headers not yet written, so the two paths
// are indistinguishable on the wire).
func writeHotJSON(w http.ResponseWriter, e *hotEnc, v any) {
	if e.fallback {
		putEnc(e)
		writeJSON(w, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(e.buf)
	putEnc(e)
}

// writePredictions answers predict_transfers.
func writePredictions(w http.ResponseWriter, preds []Prediction) {
	e := getEnc()
	e.predictions(preds, 0)
	e.raw("\n")
	writeHotJSON(w, e, preds)
}

// writeSelectFastest answers select_fastest.
func writeSelectFastest(w http.ResponseWriter, best int, results []HypothesisResult) {
	e := getEnc()
	e.selectFastestResponse(best, results)
	writeHotJSON(w, e, selectFastestResponse{Best: best, Results: results})
}

// selectFastestResponse is the select_fastest answer shape for the hot
// encoder's encoding/json fallback.
type selectFastestResponse struct {
	Best    int                `json:"best"`
	Results []HypothesisResult `json:"results"`
}

// writeEvaluate answers evaluate, streaming scenario rows: the grid is
// encoded row by row into the pooled buffer and flushed at
// evalFlushThreshold boundaries, so response memory stays bounded by
// the largest row, not the grid. The fallback decision is made before
// the first flush; a non-finite value appearing in a later row of an
// already-streaming response truncates it (encoding/json would have sent
// nothing — but no simulation produces non-finite output).
func writeEvaluate(w http.ResponseWriter, resp *EvaluateResponse) {
	e := getEnc()
	e.raw("{")
	e.nl(1)
	e.raw(`"platform": `)
	e.str(resp.Platform)
	e.raw(",")
	e.nl(1)
	e.raw(`"scenarios": `)
	streaming := false
	flush := func() bool {
		if e.fallback {
			return !streaming
		}
		if len(e.buf) >= evalFlushThreshold {
			if !streaming {
				w.Header().Set("Content-Type", "application/json")
				streaming = true
			}
			_, _ = w.Write(e.buf)
			e.buf = e.buf[:0]
		}
		return false
	}
	switch {
	case resp.Scenarios == nil:
		e.raw("null")
	case len(resp.Scenarios) == 0:
		e.raw("[]")
	default:
		e.raw("[")
		for i := range resp.Scenarios {
			if i > 0 {
				e.raw(",")
			}
			e.nl(2)
			e.scenarioResult(&resp.Scenarios[i], 2)
			if flush() {
				putEnc(e)
				writeJSON(w, resp)
				return
			}
		}
		e.nl(1)
		e.raw("]")
	}
	e.raw(",")
	e.nl(1)
	e.raw(`"stats": `)
	e.evaluateStats(&resp.Stats, 1)
	e.nl(0)
	e.raw("}\n")
	if e.fallback && !streaming {
		putEnc(e)
		writeJSON(w, resp)
		return
	}
	if !streaming {
		w.Header().Set("Content-Type", "application/json")
	}
	if !e.fallback {
		_, _ = w.Write(e.buf)
	}
	putEnc(e)
}
