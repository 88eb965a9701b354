// Package fleet is the coordination layer that turns N paeserve replicas
// into one fault-tolerant extraction service. A Router fans /extract
// requests out to health-checked backends with bounded retries against
// *different* replicas, optional tail-latency hedging for single-page
// requests, per-backend circuit breakers, fingerprint-pinned routing (one
// logical request never mixes model versions, even mid-rollout), and a
// fleet-wide load-shedding policy that degrades gracefully — batch requests
// shed first, then everything, always as typed 503s with Retry-After.
//
// Everything is pure stdlib. The package is deliberately backend-agnostic:
// a backend is anything that speaks the internal/serve contract — /extract
// with the X-Pae-Bundle header, a readiness-aware /healthz that reports the
// bundle fingerprint and flips to 503 {"status":"draining"} before
// shutdown.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Typed routing failures, surfaced as JSON 503s and matchable in tests.
var (
	// ErrNoBackends: no backend is routable (all down, tried, or circuit-open).
	ErrNoBackends = errors.New("fleet: no routable backend")
	// ErrPinned: backends exist, but none advertises the bundle fingerprint
	// this request is pinned to — refusing to mix model versions mid-request.
	ErrPinned = errors.New("fleet: no backend with the pinned bundle fingerprint")
	// ErrWorkload: backends exist and are routable, but none hosts the
	// workload the request declared — a title request against an all
	// detail-page fleet, or vice versa.
	ErrWorkload = errors.New("fleet: no backend hosts the requested workload")
)

// Config configures a Router. Backends is required; every other field has a
// production-shaped default.
type Config struct {
	// Backends are the replicas' base URLs, e.g. "http://127.0.0.1:8081".
	Backends []string

	// ProbeInterval is the active health-check period per backend
	// (default 1s); ProbeTimeout bounds one probe (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold consecutive probe failures demote a backend one rung
	// (healthy → suspect → down); RiseThreshold consecutive successes
	// promote it one rung. Both default to 2.
	FailThreshold int
	RiseThreshold int

	// MaxAttempts bounds the total tries (first attempt + retries + hedges)
	// for one logical request (default 3). Each attempt goes to a backend
	// the request has not tried yet.
	MaxAttempts int
	// AttemptTimeout bounds each attempt (default 10s).
	AttemptTimeout time.Duration
	// RetryBackoff is the base of the jittered exponential backoff between
	// retries: attempt n waits RetryBackoff·2ⁿ⁻¹ scaled by a uniform
	// [0.5,1.5) jitter, capped at 1s (default 25ms).
	RetryBackoff time.Duration
	// HedgeAfter, when positive, arms tail-latency hedging for single-page
	// requests: if the first attempt has not answered after this long, a
	// second attempt starts on another backend and the first response wins
	// (default off).
	HedgeAfter time.Duration

	// MaxInflight bounds requests in flight through the router; past it,
	// requests are shed with 503 + Retry-After (default 0 = unlimited).
	// BatchShedFraction sheds batch requests first: once in-flight load
	// exceeds this fraction of MaxInflight, batches get 503 while
	// single-page requests still pass (default 0.75).
	MaxInflight       int
	BatchShedFraction float64

	// BreakerThreshold consecutive request failures open a backend's
	// circuit for BreakerCooldown, after which one trial request may pass
	// (defaults 5, 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// AllowMixedFingerprints disables fingerprint pinning. By default a
	// logical request is pinned to the bundle fingerprint of its first
	// backend: retries and hedges only go to replicas advertising the same
	// fingerprint, and a response carrying a different one is discarded and
	// retried — a client never sees two model versions stitched together.
	AllowMixedFingerprints bool

	// Transport overrides the HTTP transport (tests inject faults here);
	// nil uses a dedicated transport with per-backend keep-alive pools.
	Transport http.RoundTripper
	// Obs receives the fleet counters (fleet.*), probe gauges, the
	// fleet.request.seconds latency histogram, the per-route/per-backend
	// rolling windows behind /metrics and GET /fleet, and the router's log
	// events: backend state changes and breaker opens at Info and Warn, one
	// access-log event per request at Debug. Nil records nothing.
	Obs *obs.Recorder
	// Traces, when non-nil, captures per-request traces — retries, hedges,
	// breaker opens, sheds — served at GET /debug/traces. Nil disables
	// capture; the X-Pae-Trace ID still round-trips on every response.
	Traces *obs.TraceLog
	// Seed fixes the backoff-jitter RNG for deterministic tests (0 seeds
	// from the clock).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.RiseThreshold <= 0 {
		c.RiseThreshold = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.BatchShedFraction <= 0 || c.BatchShedFraction > 1 {
		c.BatchShedFraction = 0.75
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	return c
}

// Router fans extraction requests out over a fleet of backends. Construct
// with New, call Start to begin health probing, Handler for the HTTP
// surface, Close to stop probing.
type Router struct {
	cfg      Config
	rec      *obs.Recorder
	tel      *serve.Telemetry
	client   *http.Client
	backends []*Backend
	inflight atomic.Int64
	rr       atomic.Uint64 // round-robin tie-breaker

	randMu sync.Mutex
	rand   *rand.Rand

	stop    context.CancelFunc
	probeWG sync.WaitGroup
}

// New builds a Router over the configured backends. Backends start in the
// Suspect state (routable, not preferred) until the first probes land; call
// ProbeAll for a synchronous warm-up round.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: no backends configured")
	}
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	tr := cfg.Transport
	if tr == nil {
		tr = &http.Transport{MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second}
	}
	rt := &Router{
		cfg:    cfg,
		rec:    cfg.Obs,
		tel:    serve.NewTelemetry("fleet", cfg.Obs, cfg.Traces),
		client: &http.Client{Transport: tr},
		rand:   rand.New(rand.NewSource(seed)),
	}
	for _, u := range cfg.Backends {
		b := &Backend{url: u}
		b.br.threshold = cfg.BreakerThreshold
		b.br.cooldown = cfg.BreakerCooldown
		b.win = rt.rec.Window(`fleet.backend.seconds.window{backend="`+u+`"}`, obs.WindowOptions{})
		rt.backends = append(rt.backends, b)
	}
	return rt, nil
}

// Backends returns the fleet members, in configuration order.
func (rt *Router) Backends() []*Backend { return rt.backends }

// Start launches one probe loop per backend. Each loop probes immediately,
// then every ProbeInterval.
func (rt *Router) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	rt.stop = cancel
	for _, b := range rt.backends {
		rt.probeWG.Add(1)
		go func(b *Backend) {
			defer rt.probeWG.Done()
			rt.probe(ctx, b)
			t := time.NewTicker(rt.cfg.ProbeInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					rt.probe(ctx, b)
				}
			}
		}(b)
	}
}

// Close stops the probe loops and waits for them.
func (rt *Router) Close() {
	if rt.stop != nil {
		rt.stop()
		rt.probeWG.Wait()
	}
	rt.client.CloseIdleConnections()
}

// ProbeAll runs one synchronous probe round over every backend — a warm-up
// so the fleet starts with real states instead of waiting a probe interval.
func (rt *Router) ProbeAll(ctx context.Context) {
	for _, b := range rt.backends {
		rt.probe(ctx, b)
	}
}

// probe runs one active health check against a backend and folds the result
// into its state machine.
func (rt *Router) probe(ctx context.Context, b *Backend) {
	rt.rec.Add("fleet.probes", 1)
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return
	}
	var ok, draining bool
	var fp, errStr string
	var wl workload.Kind
	resp, err := rt.client.Do(req)
	if err != nil {
		errStr = err.Error()
	} else {
		var h serve.Health
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if rerr == nil && json.Unmarshal(body, &h) == nil {
			fp = h.Bundle
			wl = h.Workload
			draining = h.Status == "draining"
		}
		ok = resp.StatusCode == http.StatusOK && !draining
		if !ok {
			errStr = fmt.Sprintf("healthz status %d %s", resp.StatusCode, h.Status)
		}
	}
	if !ok {
		rt.rec.Add("fleet.probe_failures", 1)
	}
	old, now := b.onProbe(ok, draining, fp, wl, errStr, rt.cfg.FailThreshold, rt.cfg.RiseThreshold)
	if old != now {
		rt.rec.Add("fleet.state_changes", 1)
		rt.rec.Info("backend state change", "backend", b.url, "from", old.String(), "to", now.String(), "err", errStr)
	}
	healthy := 0
	for _, ob := range rt.backends {
		if ob.State() == Healthy {
			healthy++
		}
	}
	rt.rec.Set("fleet.backends_healthy", float64(healthy))
}

// Handler returns the router's HTTP surface: POST /extract (the fleet
// entry point), GET /healthz (router readiness: 200 while ≥1 backend is
// routable), GET /fleet (per-backend status for operators and tests),
// GET /metrics (Prometheus text exposition) and GET /debug/traces (slowest
// and errored request exemplars).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/extract", rt.handleExtract)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/fleet", rt.handleFleet)
	mux.Handle("/metrics", serve.MetricsHandler(rt.rec))
	mux.Handle("/debug/traces", serve.TracesHandler(rt.cfg.Traces))
	return mux
}

func (rt *Router) handleExtract(w http.ResponseWriter, r *http.Request) {
	x := rt.tel.Begin(w, r)
	if r.Method != http.MethodPost {
		x.Fail(http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			x.Fail(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		x.Fail(http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	// Classify single vs batch without validating deeply — the backend owns
	// request validation; the router only needs the shape for shedding and
	// hedging policy.
	var req serve.Request
	if err := json.Unmarshal(body, &req); err != nil {
		x.Fail(http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	single := len(req.Pages) == 0
	x.Route = "single"
	if !single {
		x.Route = "batch"
	}
	// An unknown workload is the client's mistake, not a fleet condition:
	// reject it here as the backend would, instead of reporting "no backend
	// hosts it" for a workload that cannot exist.
	if req.Workload != "" && !req.Workload.Valid() {
		x.Fail(http.StatusBadRequest, fmt.Sprintf("unknown workload %q", string(req.Workload)))
		return
	}

	// Load shedding, before any backend work: batches go first, then
	// everything. The backends' own -max-inflight queues requests; the
	// router's job under overload is to say no quickly instead of queueing
	// without bound.
	cur := rt.inflight.Add(1)
	defer rt.inflight.Add(-1)
	if rt.cfg.MaxInflight > 0 {
		scope := ""
		if cur > int64(rt.cfg.MaxInflight) {
			scope = "full"
		} else if !single && float64(cur) > rt.cfg.BatchShedFraction*float64(rt.cfg.MaxInflight) {
			scope = "batch"
		}
		if scope != "" {
			rt.rec.Add("fleet.shed_"+scope, 1)
			x.Trace.Event("shed", "scope", scope, "inflight", strconv.FormatInt(cur, 10))
			x.Shed(fmt.Sprintf("overloaded: %d requests in flight, shedding %s requests", cur, scope))
			return
		}
	}

	rt.rec.Add("fleet.requests", 1)
	rt.forward(w, r, x, body, single, req.Workload)
}

// attemptOut is one attempt's outcome: a transport error, or a response
// with its body fully read.
type attemptOut struct {
	b      *Backend
	status int
	header http.Header
	body   []byte
	err    error
}

// retryable reports whether the outcome should burn a retry: transport
// errors (connection refused/reset, timeouts, slow-loris read aborts) and
// backend 5xx. 2xx and 4xx are terminal.
func (o attemptOut) retryable() bool { return o.err != nil || o.status >= 500 }

// forward runs the attempt loop for one logical request: pick a backend,
// try it, retry (with jittered backoff) or hedge onto *different* backends
// as needed, and stream the winning response to the client.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, x *serve.Exchange, body []byte, single bool, wl workload.Kind) {
	ctx, tr := r.Context(), x.Trace
	tried := map[*Backend]bool{}
	var pin string // bundle fingerprint this request is pinned to
	results := make(chan attemptOut, rt.cfg.MaxAttempts+1)
	attempts, inFlight := 0, 0
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	// launch starts one attempt on a not-yet-tried backend; a typed error
	// means no such backend exists right now.
	launch := func() (*Backend, error) {
		b, err := rt.pick(tried, pin, wl)
		if errors.Is(err, ErrPinned) && rt.pinDrained(pin) {
			// Every routable backend moved off the pinned bundle while an
			// earlier attempt was out (a rollout finished under it): no
			// version is left to stay consistent with, so drop the pin and
			// pick among the fresh ones.
			rt.rec.Add("fleet.pin_drained", 1)
			tr.Event("pin-drained", "pin", pin)
			pin = ""
			b, err = rt.pick(tried, pin, wl)
		}
		if err != nil {
			return nil, err
		}
		if pin == "" && !rt.cfg.AllowMixedFingerprints {
			pin = b.Fingerprint() // "" if never probed: first response sets it
		}
		tried[b] = true
		attempts++
		inFlight++
		tr.Event("attempt", "n", strconv.Itoa(attempts), "backend", b.URL())
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		go func() { results <- rt.attempt(actx, b, body, x.ID, tr) }()
		return b, nil
	}

	finish := func(out attemptOut) {
		h := w.Header()
		for _, k := range []string{"Content-Type", serve.BundleHeader, serve.WorkloadHeader} {
			if v := out.header.Get(k); v != "" {
				h.Set(k, v)
			}
		}
		w.WriteHeader(out.status)
		_, _ = w.Write(out.body)
		var err error
		if out.status < 400 {
			rt.rec.Add("fleet.success", 1)
		} else {
			rt.rec.Add("fleet.errors", 1)
			err = fmt.Errorf("backend status %d", out.status)
		}
		x.Finish(out.status, err)
	}

	fail := func(status int, err error) {
		rt.rec.Add("fleet.errors", 1)
		x.Fail(status, err.Error())
	}

	if _, err := launch(); err != nil {
		tr.Event("no-backend", "err", err.Error())
		fail(http.StatusServiceUnavailable, err)
		return
	}
	var hedgeC <-chan time.Time
	if single && rt.cfg.HedgeAfter > 0 && rt.cfg.MaxAttempts > 1 {
		hedgeC = time.After(rt.cfg.HedgeAfter)
	}
	var retryC <-chan time.Time
	var last attemptOut
	var hedgeB *Backend
	for {
		select {
		case out := <-results:
			inFlight--
			if !out.retryable() {
				if !rt.pinOK(out, pin) {
					rt.rec.Add("fleet.fingerprint_mismatch", 1)
					if rt.pinDrained(pin) {
						// The pinned bundle is gone from every routable
						// backend — a rollout completed under this request.
						// There is no version left to stay consistent with,
						// so the fresh response is the answer, not an error.
						rt.rec.Add("fleet.pin_drained", 1)
						tr.Event("pin-drained", "backend", out.b.URL(), "pin", pin)
						finish(out)
						return
					}
					// A backend answered with a different bundle than this
					// request is pinned to (rollout race): never mix model
					// versions — discard and retry against the pinned set.
					tr.Event("fingerprint-mismatch", "backend", out.b.URL(), "pin", pin)
					out.err = fmt.Errorf("%w: backend %s answered with a different bundle", ErrPinned, out.b.URL())
				} else {
					if hedgeB != nil && out.b == hedgeB {
						rt.rec.Add("fleet.hedge_wins", 1)
						tr.Event("hedge-won", "backend", out.b.URL())
					}
					if pin == "" && out.b != nil {
						// Unprobed fleet: adopt the first fingerprint seen.
						out.b.setFingerprint(out.header.Get(serve.BundleHeader))
					}
					finish(out)
					return
				}
			} else if out.err != nil {
				tr.Event("attempt-failed", "backend", out.b.URL(), "err", out.err.Error())
			} else {
				tr.Event("attempt-failed", "backend", out.b.URL(), "status", strconv.Itoa(out.status))
			}
			last = out
			if attempts < rt.cfg.MaxAttempts {
				d := rt.backoff(attempts)
				tr.Event("retry", "after", d.String())
				retryC = time.After(d)
			} else if inFlight == 0 {
				fail(rt.failStatus(last), lastError(last))
				return
			}
		case <-retryC:
			retryC = nil
			if _, err := launch(); err != nil {
				tr.Event("no-backend", "err", err.Error())
				if inFlight == 0 {
					fail(http.StatusServiceUnavailable, err)
					return
				}
			} else {
				rt.rec.Add("fleet.retries", 1)
			}
		case <-hedgeC:
			hedgeC = nil
			if attempts < rt.cfg.MaxAttempts {
				if b, err := launch(); err == nil {
					hedgeB = b
					rt.rec.Add("fleet.hedges", 1)
					tr.Event("hedge", "backend", b.URL())
				}
			}
		case <-ctx.Done():
			rt.rec.Add("fleet.client_canceled", 1)
			tr.Event("client-canceled")
			x.Fail(http.StatusServiceUnavailable, "client canceled")
			return
		}
	}
}

// pinOK verifies a successful response carries the pinned fingerprint (when
// pinning is armed and the backend sent the header).
func (rt *Router) pinOK(out attemptOut, pin string) bool {
	if pin == "" || rt.cfg.AllowMixedFingerprints || out.status >= 400 {
		return true
	}
	got := out.header.Get(serve.BundleHeader)
	if got != "" && got != pin {
		// Remember the fresher fingerprint so future requests pin correctly.
		out.b.setFingerprint(got)
		return false
	}
	return true
}

// pinDrained reports whether no routable backend still serves the pinned
// fingerprint. It runs after pinOK has already corrected the answering
// backend's cached fingerprint, so a true result means the pinned version has
// genuinely left the fleet (every mismatch teaches the router one backend's
// real version, so a fully-rolled fleet is recognized within one retry per
// stale cache entry). Unprobed backends ("" fingerprint) count as possibly
// serving the pin, matching pick's wildcard treatment.
func (rt *Router) pinDrained(pin string) bool {
	if pin == "" {
		return false
	}
	for _, b := range rt.backends {
		if b.State() == Down {
			continue
		}
		if fp := b.Fingerprint(); fp == "" || fp == pin {
			return false
		}
	}
	return true
}

// failStatus maps an exhausted attempt budget to the client-facing status:
// pass a backend's own status through, transport errors become 502.
func (rt *Router) failStatus(last attemptOut) int {
	if last.err != nil {
		return http.StatusBadGateway
	}
	return last.status
}

func lastError(last attemptOut) error {
	if last.err != nil {
		return fmt.Errorf("all attempts failed; last: %w", last.err)
	}
	return fmt.Errorf("all attempts failed; last: backend status %d: %s",
		last.status, bytes.TrimSpace(last.body))
}

// attempt runs one try against one backend and fully reads the response.
// The trace ID rides the X-Pae-Trace header so every retry and hedge of a
// logical request shows up under one ID in the backend's own trace log.
func (rt *Router) attempt(ctx context.Context, b *Backend, body []byte, tid string, tr *obs.Trace) attemptOut {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	began := time.Now()
	defer func() { b.win.Observe(time.Since(began).Seconds()) }()
	actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, b.url+"/extract", bytes.NewReader(body))
	if err != nil {
		return attemptOut{b: b, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, tid)
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.noteFailure(b, tr)
		return attemptOut{b: b, err: err}
	}
	defer resp.Body.Close()
	// Read the whole body under the attempt deadline: a slow-loris backend
	// fails here, not in the client's lap.
	rbody, err := io.ReadAll(io.LimitReader(resp.Body, serve.MaxBodyBytes*4))
	if err != nil {
		rt.noteFailure(b, tr)
		return attemptOut{b: b, err: fmt.Errorf("read response: %w", err)}
	}
	if resp.StatusCode >= 500 {
		rt.noteFailure(b, tr)
	} else {
		b.br.success()
	}
	// A live response is fresher than the last probe: learn the workload now
	// so a mid-rollout reload (detail-page → title) redirects the very next
	// pick instead of waiting out a probe interval.
	b.setWorkload(workload.Kind(resp.Header.Get(serve.WorkloadHeader)))
	return attemptOut{b: b, status: resp.StatusCode, header: resp.Header, body: rbody}
}

func (rt *Router) noteFailure(b *Backend, tr *obs.Trace) {
	if b.br.failure(time.Now()) {
		rt.rec.Add("fleet.breaker_opens", 1)
		tr.Event("breaker-open", "backend", b.url)
		rt.rec.Warn("circuit breaker opened", "backend", b.url)
	}
}

// pick selects the attempt's backend: the least-loaded not-yet-tried
// backend hosting the requested workload, preferring healthy over suspect,
// breaker-closed over a half-open trial, and — when pinning is armed —
// replicas advertising the pinned fingerprint. Down backends and open
// breakers are never picked.
func (rt *Router) pick(tried map[*Backend]bool, pin string, wl workload.Kind) (*Backend, error) {
	now := time.Now()
	pinBlocked, wlBlocked := false, false
	// tier 0: healthy+closed, 1: suspect+closed, 2: healthy+trial, 3: suspect+trial
	var tiers [4][]*Backend
	for _, b := range rt.backends {
		if tried[b] {
			continue
		}
		st := b.State()
		if st == Down {
			continue
		}
		// The workload filter runs before the fingerprint pin: fingerprints
		// only distinguish versions *within* a workload, so a backend of the
		// wrong shape is out of the candidate set entirely. A backend whose
		// workload is still unknown ("" — unprobed, or a pre-workload serve
		// build) stays routable as a wildcard, exactly as unprobed
		// fingerprints pin lazily; if it answers the wrong shape the backend
		// itself rejects with a 400 workload mismatch.
		if wl != "" {
			if bw := b.Workload(); bw != "" && bw.WithDefault() != wl.WithDefault() {
				wlBlocked = true
				continue
			}
		}
		if pin != "" {
			if fp := b.Fingerprint(); fp != "" && fp != pin {
				pinBlocked = true
				continue
			}
		}
		switch brState := b.br.state(now); {
		case brState == breakerClosed && st == Healthy:
			tiers[0] = append(tiers[0], b)
		case brState == breakerClosed:
			tiers[1] = append(tiers[1], b)
		case brState == breakerHalfOpen && st == Healthy:
			tiers[2] = append(tiers[2], b)
		case brState == breakerHalfOpen:
			tiers[3] = append(tiers[3], b)
		}
	}
	for ti, tier := range tiers {
		// Least in-flight first, round-robin among ties.
		offset := int(rt.rr.Add(1))
		var best *Backend
		var bestLoad int64
		for i := range tier {
			b := tier[(i+offset)%len(tier)]
			load := b.Inflight()
			if best == nil || load < bestLoad {
				best, bestLoad = b, load
			}
		}
		if best == nil {
			continue
		}
		if ti >= 2 && !best.br.tryTrial(now) {
			// Lost the half-open trial slot to a concurrent request; treat
			// the backend as still open.
			continue
		}
		return best, nil
	}
	// Precedence: a pin block means the right workload exists but the pinned
	// version is gone (retry later may succeed); a workload block means the
	// fleet simply does not host the shape.
	if pinBlocked {
		return nil, ErrPinned
	}
	if wlBlocked {
		return nil, ErrWorkload
	}
	return nil, ErrNoBackends
}

// backoff returns the jittered exponential delay before retry n (1-based
// over completed attempts): RetryBackoff·2ⁿ⁻¹ scaled by uniform [0.5,1.5),
// capped at 1s.
func (rt *Router) backoff(attempt int) time.Duration {
	d := rt.cfg.RetryBackoff << (attempt - 1)
	if d > time.Second {
		d = time.Second
	}
	rt.randMu.Lock()
	j := 0.5 + rt.rand.Float64()
	rt.randMu.Unlock()
	return time.Duration(float64(d) * j)
}

// handleHealthz reports router readiness: 200 while at least one backend is
// routable (not Down, breaker not open), 503 otherwise — so a router can
// itself sit behind a health-checked load balancer.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	routable, healthy := 0, 0
	for _, b := range rt.backends {
		st := b.State()
		if st == Healthy {
			healthy++
		}
		if st != Down && b.br.state(now) != breakerOpen {
			routable++
		}
	}
	status := http.StatusOK
	state := "ok"
	if routable == 0 {
		status = http.StatusServiceUnavailable
		state = "unroutable"
	}
	serve.WriteJSON(w, status, map[string]any{
		"status":   state,
		"backends": len(rt.backends),
		"healthy":  healthy,
		"routable": routable,
		"inflight": rt.inflight.Load(),
	})
}

// FleetStatus is the GET /fleet reply. Latency maps route ("single",
// "batch") to the live rolling-window quantiles — the same numbers /metrics
// exposes as summaries, in scrapeable JSON for operators.
type FleetStatus struct {
	Backends []BackendStatus               `json:"backends"`
	Inflight int64                         `json:"inflight"`
	Latency  map[string]obs.WindowSnapshot `json:"latency,omitempty"`
}

func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	st := FleetStatus{Inflight: rt.inflight.Load()}
	if rt.rec != nil {
		st.Latency = rt.tel.Latency()
	}
	for _, b := range rt.backends {
		st.Backends = append(st.Backends, b.status(now))
	}
	serve.WriteJSON(w, http.StatusOK, st)
}

// RetryAfter parses a shed response's Retry-After header (for load
// generators); returns 0 when absent or malformed.
func RetryAfter(h http.Header) time.Duration {
	s, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || s < 0 {
		return 0
	}
	return time.Duration(s) * time.Second
}
