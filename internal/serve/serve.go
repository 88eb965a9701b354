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
//     first, then the served-bundle pointer swaps atomically. Each request
//     loads that pointer once, so in-flight requests finish on the model
//     they started on; an extractor holds nothing that needs closing, so
//     the old one simply becomes garbage. A corrupt or unreadable bundle
//     leaves the old one serving.
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

// ErrorResponse is the JSON body of every non-2xx reply, from a backend or
// the fleet router. Trace echoes the request's X-Pae-Trace ID so a client
// can quote the exact trace an operator should pull from /debug/traces;
// RetryAfterSeconds mirrors the Retry-After header on 503s so JSON-only
// clients need not parse headers; Shed marks the router's load-shedding
// refusals so load generators can count them apart from failures.
type ErrorResponse struct {
	Error             string `json:"error"`
	Trace             string `json:"trace,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
	Shed              bool   `json:"shed,omitempty"`
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
	// Obs receives the serve and extract counters, the
	// serve.request.seconds latency histogram (ms-scale buckets), the
	// per-route rolling-window quantiles /metrics exposes and one Debug
	// access-log event per request; nil records nothing.
	Obs *obs.Recorder
	// Traces, when non-nil, captures per-request traces — slowest and
	// errored exemplars — served at GET /debug/traces. Nil disables capture;
	// the X-Pae-Trace ID still round-trips on every response.
	Traces *obs.TraceLog
	// FaultInjector, when non-nil, is fired at the serve.reload boundary so
	// containment tests can force reload failures deterministically.
	FaultInjector *faultinject.Injector
}

// live is one loaded bundle: its extractor, its file description, and the
// path it came from (what a pathless reload re-reads).
type live struct {
	x    *extract.Extractor
	info *bundle.FileInfo
	path string
}

// Server answers extraction requests from a hot-swappable bundle. All
// mutable state is the served-bundle pointer and the draining flag;
// everything else is read-only after New.
type Server struct {
	cfg      Config
	rec      *obs.Recorder
	tel      *Telemetry
	sem      chan struct{} // bounds in-flight extractions; nil means unlimited
	cur      atomic.Pointer[live]
	draining atomic.Bool
}

// New loads the bundle and builds a serving core.
func New(cfg Config) (*Server, error) {
	s := &Server{cfg: cfg, rec: cfg.Obs, tel: NewTelemetry("serve", cfg.Obs, cfg.Traces)}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	l, err := s.load(cfg.BundlePath)
	if err != nil {
		return nil, err
	}
	s.cur.Store(l)
	return s, nil
}

// load reads and verifies a bundle file — one read, one hash — and builds
// its extractor.
func (s *Server) load(path string) (*live, error) {
	b, info, err := bundle.LoadFileInfo(path)
	if err != nil {
		return nil, err
	}
	x, err := extract.New(b, extract.Options{Workers: s.cfg.Workers, Obs: s.rec})
	if err != nil {
		return nil, err
	}
	return &live{x: x, info: info, path: path}, nil
}

// Extractor returns the currently served extractor (for logs and tests).
func (s *Server) Extractor() *extract.Extractor { return s.cur.Load().x }

// Fingerprint returns the content address of the currently served bundle.
func (s *Server) Fingerprint() string { return s.cur.Load().info.Fingerprint }

// Reload swaps the served bundle for the one at path (empty = the last
// loaded path). The new bundle is fully loaded and fingerprint-verified
// before the swap, so any error leaves the old bundle serving; requests
// already running keep the extractor they loaded.
func (s *Server) Reload(path string) (*ReloadResponse, error) {
	if err := s.cfg.FaultInjector.Fire(faultinject.StageReload); err != nil {
		s.rec.Add("serve.reload_errors", 1)
		return nil, err
	}
	if path == "" {
		path = s.cur.Load().path
	}
	l, err := s.load(path)
	if err != nil {
		s.rec.Add("serve.reload_errors", 1)
		return nil, err
	}
	old := s.cur.Swap(l)
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

// Close releases nothing: a Server holds no resource beyond memory, and
// http.Server.Shutdown already drains in-flight handlers, so calling Close
// is optional.
func (s *Server) Close() {}

// Handler returns the route table. Shutdown draining is the caller's job
// (http.Server.Shutdown waits for in-flight handlers).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/extract", s.handleExtract)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/bundle", s.handleBundle)
	mux.HandleFunc("/admin/reload", s.handleReload)
	mux.Handle("/metrics", MetricsHandler(s.rec))
	mux.Handle("/debug/traces", TracesHandler(s.cfg.Traces))
	return mux
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	x := s.tel.Begin(w, r)
	if r.Method != http.MethodPost {
		x.Fail(http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req Request
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			x.Fail(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		x.Fail(http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	single := req.HTML != ""
	if single == (len(req.Pages) > 0) {
		x.Fail(http.StatusBadRequest, "provide either html (with id) or pages, not both")
		return
	}
	x.Route = "single"
	if !single {
		x.Route = "batch"
	}
	tr := x.Trace

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
			x.Fail(http.StatusServiceUnavailable, "canceled while queued")
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

	// Load the served bundle once: a concurrent reload swaps the pointer for
	// later requests, while this one finishes on the model it started with.
	// The workload check runs against it, after admission: a reload could
	// swap the served workload while the request queues, and the verdict
	// must be about the bundle that will actually extract.
	l := s.cur.Load()
	if err := l.x.CheckWorkload(req.Workload); err != nil {
		w.Header().Set(WorkloadHeader, l.x.Workload().String())
		tr.Event("workload-mismatch", "requested", string(req.Workload))
		x.Fail(http.StatusBadRequest, err.Error())
		return
	}
	tr.Event("extract", "route", x.Route, "bundle", l.info.Fingerprint)
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
		x.Fail(status, err.Error())
		return
	}
	if ts != nil {
		resp.Triples = ts
	}
	s.rec.Add("serve.requests", 1)
	WriteJSON(w, http.StatusOK, resp)
	x.Finish(http.StatusOK, nil)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	info := s.cur.Load().info
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
	WriteJSON(w, status, h)
}

// handleBundle reports the served artifact: the full manifest plus the file
// geometry paeinspect prints — enough for an operator to verify which model a
// replica is running without touching its disk.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.cur.Load().info)
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
	WriteJSON(w, http.StatusOK, resp)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: msg})
}
