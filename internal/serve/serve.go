// Package serve is the reusable serving core behind cmd/paeserve: one HTTP
// handler that answers extraction requests from a hot-swappable model
// bundle. cmd/paeserve wires it to flags and signals; the fleet experiment
// and the fleet tests embed it directly to stand up real backends
// in-process.
//
// The server owns the serve-time robustness contract the router
// (internal/fleet) depends on:
//
//   - /healthz is readiness-aware: it reports the live bundle fingerprint
//     while serving and flips to 503 {"status":"draining"} the moment drain
//     begins, so a router stops routing to a dying backend instead of
//     eating request errors.
//   - Every /extract response carries the bundle fingerprint in the
//     X-Pae-Bundle header, letting the router verify it never mixes model
//     versions inside one logical request.
//   - POST /admin/reload (and SIGHUP in cmd/paeserve) swaps the bundle with
//     zero downtime: the new .paeb is loaded and fingerprint-verified
//     first, the extractor pointer swaps atomically, and the old extractor
//     drains — in-flight requests finish on the model they started on —
//     before it is closed. A corrupt or unreadable bundle leaves the old
//     one serving.
//   - Overload and misuse map to typed statuses the router can rely on:
//     503 for admission-queue cancellation and extraction timeouts, 413 for
//     oversized bodies, 400 for malformed requests.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bundle"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/seed"
	"repro/internal/triples"
	"repro/internal/workload"
)

// BundleHeader is the response header carrying the fingerprint of the
// bundle that produced an /extract response. The fleet router pins logical
// requests to one fingerprint by comparing this header across attempts.
const BundleHeader = "X-Pae-Bundle"

// WorkloadHeader is the response header naming the workload of the bundle
// that produced an /extract response. The fleet router uses it (and the
// /healthz field) to learn which page shape each backend hosts, so a mixed
// fleet routes title requests to title replicas.
const WorkloadHeader = "X-Pae-Workload"

// MaxBodyBytes bounds a request body; product pages are small, and an
// unbounded body is an easy way to exhaust a serving replica.
const MaxBodyBytes = 16 << 20

// Request is the POST /extract body. Either a single page (id + html) or a
// batch (pages); exactly one form must be used. Workload optionally declares
// the page shape the client is sending ("detail-page", "title"); absent means
// "whatever this server's bundle serves", so pre-refactor clients keep
// working, while a declared mismatch is rejected with 400 instead of being
// extracted through the wrong model.
type Request struct {
	ID       string        `json:"id,omitempty"`
	HTML     string        `json:"html,omitempty"`
	Workload workload.Kind `json:"workload,omitempty"`
	Pages    []Page        `json:"pages,omitempty"`
}

// Page is one document of a batch request.
type Page struct {
	ID   string `json:"id"`
	HTML string `json:"html"`
}

// Response is the POST /extract reply.
type Response struct {
	Bundle  string           `json:"bundle"`
	Pages   int              `json:"pages"`
	Triples []triples.Triple `json:"triples"`
}

// ErrorResponse is the JSON body of every non-2xx reply. Trace echoes the
// request's X-Pae-Trace ID so a client can quote the exact trace an operator
// should pull from /debug/traces; RetryAfterSeconds mirrors the Retry-After
// header on 503s so JSON-only clients need not parse headers.
type ErrorResponse struct {
	Error             string `json:"error"`
	Trace             string `json:"trace,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// Health is the GET /healthz body. Status is "ok" or "draining"; a
// draining replica answers 503 so health checkers drop it from rotation
// before shutdown closes the listener.
type Health struct {
	Status string `json:"status"`
	Bundle string `json:"bundle"`
	Model  string `json:"model"`
	// Workload names the page shape the served bundle was trained for.
	// omitempty keeps hand-built Health values (tests, older probes) valid:
	// an absent field reads as "unknown", which routers treat as wildcard.
	Workload workload.Kind `json:"workload,omitempty"`
}

// ReloadRequest is the optional POST /admin/reload body; an empty body (or
// empty path) reloads the path the server last loaded.
type ReloadRequest struct {
	Bundle string `json:"bundle,omitempty"`
}

// ReloadResponse reports a completed swap.
type ReloadResponse struct {
	Old    string `json:"old"`
	New    string `json:"new"`
	Bundle string `json:"bundle"` // the path that was loaded
}

// Config configures a Server. BundlePath is required; the zero value of
// everything else serves with one worker per CPU, unlimited admission and
// no per-request timeout.
type Config struct {
	// BundlePath is the .paeb artifact to load; /admin/reload without an
	// explicit path re-reads the most recently loaded path.
	BundlePath string
	// Workers bounds the per-request extraction worker pools (0 = one per
	// CPU); never changes output.
	Workers int
	// MaxInflight bounds concurrently running extractions; further
	// requests queue until a slot frees or their context ends (0 =
	// unlimited).
	MaxInflight int
	// Timeout bounds each extraction once started (0 = none).
	Timeout time.Duration
	// Obs receives request spans, serve counters, the serve.request.seconds
	// latency histogram (ms-scale buckets) and the per-route rolling-window
	// quantiles /metrics exposes; nil records nothing.
	Obs *obs.Recorder
	// Traces, when non-nil, captures per-request traces — slowest and
	// errored exemplars — served at GET /debug/traces. Nil disables capture;
	// the X-Pae-Trace ID still round-trips on every response.
	Traces *obs.TraceLog
	// FaultInjector, when non-nil, is fired at the serve.reload boundary so
	// containment tests can force reload failures deterministically.
	FaultInjector *faultinject.Injector
}

// live is one loaded extractor plus the refcount that gates its teardown:
// requests acquire a reference for their whole extraction, so a reload can
// swap the current pointer immediately and close the old extractor only
// after its last in-flight request finishes.
type live struct {
	x    *extract.Extractor
	info *bundle.FileInfo
	wg   sync.WaitGroup
}

// Server answers extraction requests from a hot-swappable bundle. All
// mutable state is the current *live pointer (guarded by mu) and the
// draining flag; everything else is read-only after New.
type Server struct {
	cfg    Config
	rec    *obs.Recorder
	traces *obs.TraceLog
	sem    chan struct{} // bounds in-flight extractions; nil means unlimited
	// Per-route rolling latency windows behind the /metrics summaries and
	// the live p50/p99/p999; nil (no Recorder) is inert.
	winSingle *obs.Window
	winBatch  *obs.Window

	mu        sync.Mutex // guards cur and path
	cur       *live
	path      string
	drains    sync.WaitGroup // old-extractor teardowns still in flight
	reloading atomic.Int32   // old extractors still draining (trace visibility)
	draining  atomic.Bool
}

// New loads the bundle and builds a serving core.
func New(cfg Config) (*Server, error) {
	s := &Server{cfg: cfg, rec: cfg.Obs, traces: cfg.Traces}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	// Request latencies are ms-scale: override the train-time default
	// buckets before the first observation lands.
	s.rec.SetBuckets("serve.request.seconds", obs.LatencyBuckets())
	s.winSingle = s.rec.Window(`serve.request.seconds.window{route="single"}`, obs.WindowOptions{})
	s.winBatch = s.rec.Window(`serve.request.seconds.window{route="batch"}`, obs.WindowOptions{})
	l, err := s.load(cfg.BundlePath)
	if err != nil {
		return nil, err
	}
	s.cur = l
	s.path = cfg.BundlePath
	return s, nil
}

// load reads and verifies a bundle file and builds its extractor.
func (s *Server) load(path string) (*live, error) {
	info, err := bundle.Stat(path)
	if err != nil {
		return nil, err
	}
	x, err := extract.Open(path, extract.Options{Workers: s.cfg.Workers, Obs: s.rec})
	if err != nil {
		return nil, err
	}
	return &live{x: x, info: info}, nil
}

// acquire pins the current extractor for one request. The returned release
// must be called when the request is done with it.
func (s *Server) acquire() (*live, func()) {
	s.mu.Lock()
	l := s.cur
	l.wg.Add(1)
	s.mu.Unlock()
	return l, func() { l.wg.Done() }
}

// Extractor returns the currently served extractor (for logs and tests).
func (s *Server) Extractor() *extract.Extractor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.x
}

// Fingerprint returns the content address of the currently served bundle.
func (s *Server) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.info.Fingerprint
}

// Reload swaps the served bundle for the one at path (empty = the last
// loaded path). The new bundle is fully loaded and fingerprint-verified
// before the swap, so any error leaves the old bundle serving; after the
// swap the old extractor drains in the background — in-flight requests
// finish on the model they started on — and is closed when the last one
// releases it.
func (s *Server) Reload(path string) (*ReloadResponse, error) {
	if err := s.cfg.FaultInjector.Fire(faultinject.StageReload); err != nil {
		s.rec.Add("serve.reload_errors", 1)
		return nil, err
	}
	if path == "" {
		s.mu.Lock()
		path = s.path
		s.mu.Unlock()
	}
	l, err := s.load(path)
	if err != nil {
		s.rec.Add("serve.reload_errors", 1)
		return nil, err
	}
	s.mu.Lock()
	old := s.cur
	s.cur = l
	s.path = path
	s.mu.Unlock()
	s.drains.Add(1)
	s.reloading.Add(1)
	go func() {
		defer s.drains.Done()
		defer s.reloading.Add(-1)
		old.wg.Wait()
		old.x.Close()
	}()
	s.rec.Add("serve.reloads", 1)
	return &ReloadResponse{Old: old.info.Fingerprint, New: l.info.Fingerprint, Bundle: path}, nil
}

// SetDraining flips the readiness state: once draining, /healthz answers
// 503 {"status":"draining"} so routers stop sending new work. Extraction
// keeps being served until the listener actually shuts down — the point is
// to fail the health check before failing requests.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close waits for in-flight requests and pending reload teardowns, then
// closes the current extractor. Call after the HTTP server has shut down.
func (s *Server) Close() {
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	cur.wg.Wait()
	s.drains.Wait()
	cur.x.Close()
}

// Handler returns the route table. Shutdown draining is the caller's job
// (http.Server.Shutdown waits for in-flight handlers).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/extract", s.handleExtract)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/bundle", s.handleBundle)
	mux.HandleFunc("/admin/reload", s.handleReload)
	mux.Handle("/metrics", MetricsHandler(s.rec))
	mux.Handle("/debug/traces", TracesHandler(s.traces))
	return mux
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// Adopt the caller's trace ID (the router's, usually) or mint one, and
	// echo it before any branch — shed, timeout and malformed requests must
	// round-trip the ID too.
	tid := r.Header.Get(obs.TraceHeader)
	if tid == "" {
		tid = obs.NewTraceID()
	}
	w.Header().Set(obs.TraceHeader, tid)
	var tr *obs.Trace
	if s.traces != nil {
		tr = obs.NewTrace(tid)
	}

	// finish seals the trace and emits the access log; route is "" until the
	// request parses far enough to have one (such requests skip the latency
	// windows — they measured nothing).
	finish := func(route string, status int, err error) {
		dur := time.Since(start)
		outcome, errMsg := obs.TraceOK, ""
		if err != nil {
			outcome, errMsg = obs.TraceError, err.Error()
		}
		tr.Finish(outcome, status, err)
		s.traces.Record(tr)
		if route != "" {
			s.rec.Observe("serve.request.seconds", dur.Seconds())
			if route == "batch" {
				s.winBatch.Observe(dur.Seconds())
			} else {
				s.winSingle.Observe(dur.Seconds())
			}
		}
		s.rec.Debug("serve.request",
			"trace", tid, "route", route, "status", status, "dur", dur, "err", errMsg)
	}
	fail := func(route string, status int, msg string) {
		er := ErrorResponse{Error: msg, Trace: tid}
		if status == http.StatusServiceUnavailable {
			// Overload and timeouts are transient: tell clients (and their
			// retry loops) when to come back, in both header and body.
			w.Header().Set("Retry-After", "1")
			er.RetryAfterSeconds = 1
		}
		writeJSON(w, status, er)
		finish(route, status, errors.New(msg))
	}

	if r.Method != http.MethodPost {
		fail("", http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req Request
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			fail("", http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		fail("", http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	single := req.HTML != ""
	if single == (len(req.Pages) > 0) {
		fail("", http.StatusBadRequest, "provide either html (with id) or pages, not both")
		return
	}
	route := "single"
	if !single {
		route = "batch"
	}

	// Admission control: wait for an extraction slot, but never past the
	// client's patience — a canceled request releases its queue spot for free.
	ctx := r.Context()
	if s.sem != nil {
		queued := time.Now()
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			tr.Event("admitted", "queue_wait", time.Since(queued).String())
		case <-ctx.Done():
			tr.Event("shed", "reason", "client gone while queued")
			fail(route, http.StatusServiceUnavailable, "canceled while queued")
			return
		}
	} else {
		tr.Event("admitted")
	}
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	if s.reloading.Load() > 0 {
		tr.Event("reload-in-flight")
	}

	// Pin the extractor for the whole request: a concurrent reload swaps
	// the pointer for new requests but cannot close this one under us.
	l, release := s.acquire()
	defer release()
	// The workload check runs against the pinned extractor, after admission:
	// a reload could swap the served workload while the request queues, and
	// the verdict must be about the bundle that will actually extract.
	if err := l.x.CheckWorkload(req.Workload); err != nil {
		w.Header().Set(WorkloadHeader, l.x.Workload().String())
		tr.Event("workload-mismatch", "requested", string(req.Workload))
		fail(route, http.StatusBadRequest, err.Error())
		return
	}
	tr.Event("extract", "route", route, "bundle", l.info.Fingerprint)
	ctx = obs.ContextWithTrace(ctx, tr)

	resp := Response{Bundle: l.info.Fingerprint, Triples: []triples.Triple{}}
	var err error
	var ts []triples.Triple
	if single {
		resp.Pages = 1
		ts, err = l.x.ExtractPage(ctx, req.ID, req.HTML)
	} else {
		resp.Pages = len(req.Pages)
		docs := make([]seed.Document, len(req.Pages))
		for i, p := range req.Pages {
			docs[i] = seed.Document{ID: p.ID, HTML: p.HTML}
		}
		ts, err = l.x.ExtractBatch(ctx, docs)
	}
	w.Header().Set(BundleHeader, l.info.Fingerprint)
	w.Header().Set(WorkloadHeader, l.x.Workload().String())
	if err != nil {
		s.rec.Add("serve.errors", 1)
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
			tr.Event("timeout", "err", err.Error())
		}
		fail(route, status, err.Error())
		return
	}
	if ts != nil {
		resp.Triples = ts
	}
	s.rec.Add("serve.requests", 1)
	writeJSON(w, http.StatusOK, resp)
	finish(route, http.StatusOK, nil)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	info := s.cur.info
	s.mu.Unlock()
	h := Health{
		Status:   "ok",
		Bundle:   info.Fingerprint,
		Model:    info.Manifest.ModelKind,
		Workload: info.Manifest.Workload.WithDefault(),
	}
	status := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// handleBundle reports the served artifact: the full manifest plus the file
// geometry paeinspect prints — enough for an operator to verify which model a
// replica is running without touching its disk.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	info := s.cur.info
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ReloadRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad reload body: %v", err))
		return
	}
	resp, err := s.Reload(req.Bundle)
	if err != nil {
		// The old bundle is still serving; the caller's artifact is the
		// problem, not the replica.
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}
