package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve/servetest"
	"repro/internal/triples"
)

func testServer(t testing.TB, maxInflight int, timeout time.Duration) (*Server, *obs.Recorder) {
	t.Helper()
	path := servetest.BundleFile(t)
	rec := obs.New(obs.Options{NoRuntimeStats: true})
	s, err := New(Config{BundlePath: path, MaxInflight: maxInflight, Timeout: timeout, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

const testPage = servetest.Page

// bigPage takes long enough to extract (thousands of sentences) that a test
// can reliably cancel or time out mid-extraction.
var bigPage = "<html><body><p>" + strings.Repeat("weight is 5 kg. ", 3000) + "</p></body></html>"

func postExtract(t testing.TB, h http.Handler, body string) (*httptest.ResponseRecorder, Response) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/extract", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var resp Response
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response %q: %v", w.Body.String(), err)
		}
	}
	return w, resp
}

func TestExtractSinglePage(t *testing.T) {
	s, _ := testServer(t, 4, time.Minute)
	h := s.Handler()
	body, _ := json.Marshal(Request{ID: "p1", HTML: testPage})
	w, resp := postExtract(t, h, string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp.Pages != 1 || resp.Bundle == "" {
		t.Fatalf("resp = %+v", resp)
	}
	if got := w.Header().Get(BundleHeader); got != resp.Bundle || got != s.Fingerprint() {
		t.Fatalf("%s header = %q, want %q", BundleHeader, got, s.Fingerprint())
	}
	found := map[string]string{}
	for _, tr := range resp.Triples {
		if tr.ProductID != "p1" {
			t.Fatalf("wrong product: %+v", tr)
		}
		found[tr.Attribute] = tr.Value
	}
	if found["weight"] != "5kg" || found["color"] != "red" {
		t.Fatalf("triples = %v", resp.Triples)
	}
}

func TestExtractBatch(t *testing.T) {
	s, _ := testServer(t, 4, time.Minute)
	h := s.Handler()
	req := Request{Pages: []Page{
		{ID: "a", HTML: testPage},
		{ID: "b", HTML: `<html><p>color is blue</p></html>`},
	}}
	body, _ := json.Marshal(req)
	w, resp := postExtract(t, h, string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp.Pages != 2 {
		t.Fatalf("pages = %d", resp.Pages)
	}
	byProduct := map[string]int{}
	for _, tr := range resp.Triples {
		byProduct[tr.ProductID]++
	}
	if byProduct["a"] == 0 || byProduct["b"] == 0 {
		t.Fatalf("batch lost a page: %v", resp.Triples)
	}
}

func TestExtractRejectsBadRequests(t *testing.T) {
	s, _ := testServer(t, 4, time.Minute)
	h := s.Handler()
	for name, tc := range map[string]struct {
		method, body string
		want         int
	}{
		"wrong method": {http.MethodGet, "", http.StatusMethodNotAllowed},
		"bad json":     {http.MethodPost, "{", http.StatusBadRequest},
		"empty":        {http.MethodPost, "{}", http.StatusBadRequest},
		"both forms":   {http.MethodPost, `{"html":"x","pages":[{"id":"a","html":"y"}]}`, http.StatusBadRequest},
	} {
		t.Run(name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, "/extract", strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != tc.want {
				t.Fatalf("status = %d, want %d: %s", w.Code, tc.want, w.Body.String())
			}
			var er ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("error body not JSON: %q", w.Body.String())
			}
		})
	}
}

// TestOversizedBodyContract pins the fleet contract for giant requests: a
// body past MaxBodyBytes answers 413 (not 400, not a connection error) with
// a JSON error, so the router can pass it through as a terminal client
// error instead of retrying it against more backends.
func TestOversizedBodyContract(t *testing.T) {
	s, _ := testServer(t, 4, time.Minute)
	h := s.Handler()
	big := struct {
		ID   string `json:"id"`
		HTML string `json:"html"`
	}{ID: "huge", HTML: strings.Repeat("x", MaxBodyBytes+1)}
	body, _ := json.Marshal(big)
	req := httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", w.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "exceeds") {
		t.Fatalf("413 body = %q", w.Body.String())
	}
}

// TestRequestTimeoutContract pins the shape of a timed-out extraction: 503
// with a JSON error naming the deadline, the signal the router treats as
// retryable-elsewhere.
func TestRequestTimeoutContract(t *testing.T) {
	s, _ := testServer(t, 0, time.Nanosecond)
	h := s.Handler()
	body, _ := json.Marshal(Request{ID: "slow", HTML: testPage})
	w, _ := postExtract(t, h, string(body))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", w.Code, w.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "deadline") {
		t.Fatalf("timeout body = %q", w.Body.String())
	}
	if got := w.Header().Get(BundleHeader); got != s.Fingerprint() {
		t.Fatalf("timeout response lost the bundle header: %q", got)
	}
}

// TestClientDisconnectQueued: a client that gives up while waiting for an
// admission slot gets a typed 503 and releases its queue spot.
func TestClientDisconnectQueued(t *testing.T) {
	s, _ := testServer(t, 1, 0)
	h := s.Handler()
	// Occupy the only slot so the request under test queues.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	body, _ := json.Marshal(Request{ID: "q", HTML: testPage})
	req := httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "queued") {
		t.Fatalf("queued-cancel body = %q", w.Body.String())
	}
}

// TestClientDisconnectMidExtraction: a client that disconnects while its
// extraction is running gets a 503 and the extraction stops promptly
// instead of burning a worker to completion.
func TestClientDisconnectMidExtraction(t *testing.T) {
	s, _ := testServer(t, 1, 0)
	h := s.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(Request{ID: "gone", HTML: bigPage})
	req := httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(w, req)
		close(done)
	}()
	// Wait until the request holds the only admission slot — it is past
	// the queue and into extraction — then hang up.
	deadline := time.Now().Add(10 * time.Second)
	for len(s.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("extraction never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", w.Code, w.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "cancel") {
		t.Fatalf("disconnect body = %q", w.Body.String())
	}
}

func TestHealthzAndBundleEndpoints(t *testing.T) {
	s, _ := testServer(t, 4, time.Minute)
	h := s.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body.String())
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/bundle", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("bundle: %d", w.Code)
	}
	var info bundle.FileInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != s.Fingerprint() || info.Manifest.Lang != "ja" {
		t.Fatalf("bundle info = %+v", info)
	}
}

// TestDrainingHealthz pins the readiness contract: the moment drain begins,
// /healthz flips to 503 {"status":"draining"} while /extract still answers
// — routers stop routing before the listener dies.
func TestDrainingHealthz(t *testing.T) {
	s, _ := testServer(t, 4, time.Minute)
	h := s.Handler()
	s.SetDraining(true)

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", w.Code)
	}
	var hz Health
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil || hz.Status != "draining" {
		t.Fatalf("draining healthz body = %q", w.Body.String())
	}
	if hz.Bundle != s.Fingerprint() {
		t.Fatalf("draining healthz lost the fingerprint: %+v", hz)
	}

	// In-flight and straggler requests still complete during the notice
	// window.
	body, _ := json.Marshal(Request{ID: "straggler", HTML: testPage})
	got, resp := postExtract(t, h, string(body))
	if got.Code != http.StatusOK || len(resp.Triples) == 0 {
		t.Fatalf("extract while draining: %d %s", got.Code, got.Body.String())
	}

	s.SetDraining(false)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz after undrain = %d", w.Code)
	}
}

// TestReloadSwapsBundle: /admin/reload loads a new artifact, answers with
// the old and new fingerprints, and subsequent requests serve the new model
// — while a reload of a corrupt or missing bundle changes nothing.
func TestReloadSwapsBundle(t *testing.T) {
	s, rec := testServer(t, 4, time.Minute)
	h := s.Handler()
	oldFP := s.Fingerprint()

	// A different color vocabulary → a different model → a new fingerprint.
	pathB := servetest.WriteBundle(t, filepath.Join(t.TempDir(), "b.paeb"), "green", "black")
	body, _ := json.Marshal(ReloadRequest{Bundle: pathB})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/reload", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("reload status = %d: %s", w.Code, w.Body.String())
	}
	var rr ReloadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Old != oldFP || rr.New == oldFP || rr.New != s.Fingerprint() {
		t.Fatalf("reload = %+v (old fp %s)", rr, oldFP)
	}

	// New requests carry the new fingerprint.
	req, _ := json.Marshal(Request{ID: "after", HTML: testPage})
	got, resp := postExtract(t, h, string(req))
	if got.Code != http.StatusOK || resp.Bundle != rr.New {
		t.Fatalf("post-reload extract: %d bundle=%s want %s", got.Code, resp.Bundle, rr.New)
	}

	// GET /healthz and /bundle agree.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !strings.Contains(w.Body.String(), rr.New) {
		t.Fatalf("healthz still reports the old bundle: %s", w.Body.String())
	}

	// Reloading garbage fails typed and leaves the new bundle serving.
	corrupt := filepath.Join(t.TempDir(), "corrupt.paeb")
	raw, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(corrupt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{"corrupt": corrupt, "missing": filepath.Join(t.TempDir(), "nope.paeb")} {
		body, _ := json.Marshal(ReloadRequest{Bundle: path})
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/admin/reload", bytes.NewReader(body)))
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s reload status = %d: %s", name, w.Code, w.Body.String())
		}
		if s.Fingerprint() != rr.New {
			t.Fatalf("%s reload swapped the bundle anyway", name)
		}
	}
	if got := rec.Counter("serve.reload_errors"); got != 2 {
		t.Fatalf("serve.reload_errors = %d, want 2", got)
	}
}

// TestReloadInjectedFault: the serve.reload fault stage forces a reload
// failure without touching the filesystem — the containment path an
// operator hits when a rollout artifact is broken.
func TestReloadInjectedFault(t *testing.T) {
	path := servetest.BundleFile(t)
	in := faultinject.New(faultinject.Fault{Stage: faultinject.StageReload, Call: 1})
	s, err := New(Config{BundlePath: path, FaultInjector: in})
	if err != nil {
		t.Fatal(err)
	}
	fp := s.Fingerprint()
	if _, err := s.Reload(""); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected reload error = %v", err)
	}
	if s.Fingerprint() != fp {
		t.Fatal("injected fault swapped the bundle")
	}
	// The fault fires once; the next reload succeeds (same path, same
	// fingerprint, but a fresh extractor).
	if _, err := s.Reload(""); err != nil {
		t.Fatalf("reload after fault: %v", err)
	}
}

// TestReloadUnderLoad hammers /extract from many goroutines while the
// bundle hot-swaps between two versions — under -race. Every response must
// be 200 with an internally consistent fingerprint (header == body, one of
// the two versions).
func TestReloadUnderLoad(t *testing.T) {
	pathA := servetest.BundleFile(t)
	pathB := servetest.WriteBundle(t, filepath.Join(t.TempDir(), "b.paeb"), "green", "black")
	rec := obs.New(obs.Options{NoRuntimeStats: true})
	s, err := New(Config{BundlePath: pathA, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	fps := map[string]bool{s.Fingerprint(): true}
	reload := func(p string) {
		r, err := s.Reload(p)
		if err != nil {
			t.Errorf("reload %s: %v", p, err)
			return
		}
		fps[r.New] = true
	}

	const n = 40
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(Request{ID: fmt.Sprintf("p%d", i), HTML: testPage})
			req := httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d: %s", i, w.Code, w.Body.String())
				return
			}
			var resp Response
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				errs <- err
				return
			}
			if hdr := w.Header().Get(BundleHeader); hdr != resp.Bundle {
				errs <- fmt.Errorf("request %d: header %s != body %s — mixed versions", i, hdr, resp.Bundle)
				return
			}
			errs <- nil
		}(i)
		// Interleave swaps with the load: every few requests flip versions.
		if i%8 == 3 {
			reload(pathB)
		} else if i%8 == 7 {
			reload(pathA)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentInflightRequests is the serving acceptance criterion: the
// server must survive ≥32 in-flight requests under -race, every one
// answered correctly, with the per-request counters accounted for.
func TestConcurrentInflightRequests(t *testing.T) {
	s, rec := testServer(t, 8, time.Minute) // 8 slots, 48 requests: queueing exercised
	h := s.Handler()
	const n = 48
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(Request{ID: fmt.Sprintf("p%d", i), HTML: testPage})
			req := httptest.NewRequest(http.MethodPost, "/extract", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d: %s", i, w.Code, w.Body.String())
				return
			}
			var resp Response
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				errs <- err
				return
			}
			want := []triples.Triple{
				{ProductID: fmt.Sprintf("p%d", i), Attribute: "color", Value: "red"},
				{ProductID: fmt.Sprintf("p%d", i), Attribute: "weight", Value: "5kg"},
			}
			got := map[triples.Triple]bool{}
			for _, tr := range resp.Triples {
				got[tr] = true
			}
			for _, tr := range want {
				if !got[tr] {
					errs <- fmt.Errorf("request %d missing %+v in %v", i, tr, resp.Triples)
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Counter("extract.pages"); got != n {
		t.Fatalf("extract.pages = %d, want %d", got, n)
	}
	if got := rec.Counter("serve.requests"); got != n {
		t.Fatalf("serve.requests = %d, want %d", got, n)
	}
}

// TestServeSmoke runs the real thing: a live serving core on a loopback
// listener, one extraction over HTTP, a hot reload over the wire, readiness
// flipping, graceful shutdown draining the connection. This is what
// `make serve-smoke` executes.
func TestServeSmoke(t *testing.T) {
	s, _ := testServer(t, 32, 30*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	base := "http://" + ln.Addr().String()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over the wire: %d", resp.StatusCode)
	}

	body, _ := json.Marshal(Request{ID: "smoke", HTML: testPage})
	resp, err = http.Post(base+"/extract", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("extract over the wire: %d %s (%v)", resp.StatusCode, raw, err)
	}
	var er Response
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Triples) == 0 {
		t.Fatalf("smoke extraction returned no triples: %s", raw)
	}

	// Hot reload over the wire.
	pathB := servetest.WriteBundle(t, filepath.Join(t.TempDir(), "b.paeb"), "green")
	rbody, _ := json.Marshal(ReloadRequest{Bundle: pathB})
	resp, err = http.Post(base+"/admin/reload", "application/json", bytes.NewReader(rbody))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload over the wire: %d %s", resp.StatusCode, raw)
	}

	// Drain begins: readiness flips before the listener closes.
	s.SetDraining(true)
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz over the wire: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("serve loop: %v", err)
	}
}

// BenchmarkServeExtract measures a single-page extraction through the full
// HTTP handler — JSON decode, admission, engine, JSON encode.
func BenchmarkServeExtract(b *testing.B) {
	s, _ := testServer(b, 0, 0)
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
