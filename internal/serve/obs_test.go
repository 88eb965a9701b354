package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/servetest"
)

// tracedServer is testServer plus a TraceLog, for the observability tests.
func tracedServer(t testing.TB, maxInflight int, timeout time.Duration) (*Server, *obs.Recorder, *obs.TraceLog) {
	t.Helper()
	path := servetest.BundleFile(t)
	rec := obs.New(obs.Options{NoRuntimeStats: true})
	tl := obs.NewTraceLog(8)
	s, err := New(Config{BundlePath: path, MaxInflight: maxInflight, Timeout: timeout, Obs: rec, Traces: tl})
	if err != nil {
		t.Fatal(err)
	}
	return s, rec, tl
}

// TestTraceIDRoundTrip pins the trace propagation contract: a client-sent
// X-Pae-Trace ID is echoed on the response and identifies the request's
// trace at /debug/traces, with the admission and extraction events inside.
func TestTraceIDRoundTrip(t *testing.T) {
	s, _, _ := tracedServer(t, 4, time.Minute)
	h := s.Handler()

	body, _ := json.Marshal(Request{ID: "p1", HTML: testPage})
	req := httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body))
	req.Header.Set(obs.TraceHeader, "feedfacecafebeef")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get(obs.TraceHeader); got != "feedfacecafebeef" {
		t.Fatalf("%s header = %q, want the client's ID back", obs.TraceHeader, got)
	}

	dw := httptest.NewRecorder()
	h.ServeHTTP(dw, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if dw.Code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", dw.Code)
	}
	var snap obs.TraceLogSnapshot
	if err := json.Unmarshal(dw.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/traces body: %v", err)
	}
	var tr *obs.TraceSnapshot
	for i := range snap.Slowest {
		if snap.Slowest[i].ID == "feedfacecafebeef" {
			tr = &snap.Slowest[i]
		}
	}
	if tr == nil {
		t.Fatalf("trace not captured: %+v", snap)
	}
	if tr.Status != obs.TraceOK || tr.HTTPStatus != http.StatusOK {
		t.Fatalf("trace outcome = %+v", tr)
	}
	events := map[string]bool{}
	for _, e := range tr.Events {
		events[e.Msg] = true
	}
	for _, want := range []string{"admitted", "extract", "extract.page"} {
		if !events[want] {
			t.Fatalf("trace missing %q event: %+v", want, tr.Events)
		}
	}
}

// TestTraceIDMintedWhenAbsent: a client that sends no trace header still
// gets an ID back — every response is correlatable.
func TestTraceIDMintedWhenAbsent(t *testing.T) {
	s, _, _ := tracedServer(t, 4, time.Minute)
	h := s.Handler()
	body, _ := json.Marshal(Request{ID: "p1", HTML: testPage})
	w, _ := postExtract(t, h, string(body))
	if got := w.Header().Get(obs.TraceHeader); len(got) != 16 {
		t.Fatalf("minted trace ID = %q, want 16 hex chars", got)
	}
}

// TestTimeout503CarriesTrace pins the 503 contract: the JSON body names the
// trace ID and the retry hint in both header and body, and the trace lands
// in the error exemplars.
func TestTimeout503CarriesTrace(t *testing.T) {
	s, _, tl := tracedServer(t, 0, time.Nanosecond)
	h := s.Handler()
	body, _ := json.Marshal(Request{ID: "slow", HTML: testPage})
	req := httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body))
	req.Header.Set(obs.TraceHeader, "0123456789abcdef")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", w.Code, w.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatalf("503 body not JSON: %q", w.Body.String())
	}
	if er.Trace != "0123456789abcdef" {
		t.Fatalf("503 body trace = %q, want the request's ID", er.Trace)
	}
	if er.RetryAfterSeconds != 1 || w.Header().Get("Retry-After") != "1" {
		t.Fatalf("503 retry hints: body=%d header=%q", er.RetryAfterSeconds, w.Header().Get("Retry-After"))
	}
	snap := tl.Snapshot()
	if len(snap.Errors) == 0 || snap.Errors[0].ID != "0123456789abcdef" {
		t.Fatalf("timed-out trace not in error exemplars: %+v", snap)
	}
}

// TestMetricsEndpoint: after traffic, /metrics serves the serve.* counters,
// the ms-scale latency histogram and the per-route window summaries in
// Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	s, _, _ := tracedServer(t, 4, time.Minute)
	h := s.Handler()
	body, _ := json.Marshal(Request{ID: "p1", HTML: testPage})
	if w, _ := postExtract(t, h, string(body)); w.Code != http.StatusOK {
		t.Fatalf("extract: %d", w.Code)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != obs.ContentTypePrometheus {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	out := w.Body.String()
	for _, want := range []string{
		"serve_requests 1\n",
		"# TYPE serve_request_seconds histogram\n",
		`serve_request_seconds_bucket{le="0.001"}`,
		`serve_request_seconds_window{route="single",quantile="0.99"}`,
		"# TYPE extract_pages counter\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}

// TestServingTelemetryBounded: a long-lived server's recorder must not grow
// with the requests it serves. After N and then 10·N /extract requests the
// snapshot has the same span count and the same shape — the same span,
// counter, gauge, histogram and series names; only the values move.
func TestServingTelemetryBounded(t *testing.T) {
	s, rec, _ := tracedServer(t, 4, time.Minute)
	h := s.Handler()
	single, _ := json.Marshal(Request{ID: "p1", HTML: testPage})
	batch, _ := json.Marshal(Request{Pages: []Page{{ID: "p2", HTML: testPage}}})
	served := 0
	serveUpTo := func(n int) {
		for ; served < n; served++ {
			body := single
			if served%2 == 1 {
				body = batch
			}
			if w, _ := postExtract(t, h, string(body)); w.Code != http.StatusOK {
				t.Fatalf("request %d: %d %s", served, w.Code, w.Body.String())
			}
		}
	}
	const n = 10
	serveUpTo(n)
	spans1, shape1 := reportShape(rec.Snapshot())
	serveUpTo(10 * n)
	spans2, shape2 := reportShape(rec.Snapshot())
	if spans2 != spans1 {
		t.Fatalf("span count grew from %d after %d requests to %d after %d", spans1, n, spans2, 10*n)
	}
	if shape2 != shape1 {
		t.Fatalf("report shape changed between %d and %d requests:\n%s\n%s", n, 10*n, shape1, shape2)
	}
	if got := rec.Counter("serve.requests"); got != 10*n {
		t.Fatalf("serve.requests = %d, want %d", got, 10*n)
	}
}

// reportShape counts a report's spans and lists its names: every span (one
// entry per node) and every counter, gauge, histogram and series, sorted.
func reportShape(rep *obs.Report) (spans int, shape string) {
	var names []string
	var walk func(sp *obs.SpanReport)
	walk = func(sp *obs.SpanReport) {
		if sp == nil {
			return
		}
		spans++
		names = append(names, "span "+sp.Name)
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(rep.Span)
	for k := range rep.Counters {
		names = append(names, "counter "+k)
	}
	for k := range rep.Gauges {
		names = append(names, "gauge "+k)
	}
	for k := range rep.Histograms {
		names = append(names, "histogram "+k)
	}
	for k := range rep.Series {
		names = append(names, "series "+k)
	}
	sort.Strings(names)
	return spans, strings.Join(names, "\n")
}

// BenchmarkServeExtractNoObs is the disabled-observability baseline: nil
// Recorder, nil TraceLog. Compare against BenchmarkServeExtract to verify
// tracing and exposition cost nothing when off (the nil-check contract).
func BenchmarkServeExtractNoObs(b *testing.B) {
	path := servetest.BundleFile(b)
	s, err := New(Config{BundlePath: path})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	body, _ := json.Marshal(Request{ID: "bench", HTML: testPage})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}
