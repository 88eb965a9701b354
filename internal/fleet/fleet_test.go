package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/triples"
	"repro/internal/workload"
)

// stub is a fake paeserve replica speaking the internal/serve contract:
// /healthz with status+bundle fingerprint, /extract with the X-Pae-Bundle
// header. Wire-level misbehaviour is injected by wrapping the handler in
// faultinject.HTTPMiddleware.
type stub struct {
	fp       string        // fingerprint advertised on /healthz
	respFP   string        // fingerprint stamped on /extract responses
	wl       workload.Kind // workload advertised on /healthz ("" = not advertised)
	respWL   workload.Kind // workload stamped on /extract responses
	delay    time.Duration
	draining atomic.Bool
	inj      *faultinject.Injector
	srv      *httptest.Server
}

func newStub(t testing.TB, fp string, inj *faultinject.Injector) *stub {
	t.Helper()
	s := &stub{fp: fp, respFP: fp, inj: inj}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := serve.Health{Status: "ok", Bundle: s.fp, Model: "stub", Workload: s.wl}
		code := http.StatusOK
		if s.draining.Load() {
			h.Status, code = "draining", http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/extract", func(w http.ResponseWriter, r *http.Request) {
		if s.delay > 0 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(s.delay):
			}
		}
		var req serve.Request
		_ = json.NewDecoder(r.Body).Decode(&req)
		pages := len(req.Pages)
		if pages == 0 {
			pages = 1
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(serve.BundleHeader, s.respFP)
		if s.respWL != "" {
			w.Header().Set(serve.WorkloadHeader, string(s.respWL))
		}
		_ = json.NewEncoder(w).Encode(serve.Response{
			Bundle:  s.respFP,
			Pages:   pages,
			Triples: []triples.Triple{{ProductID: "p1", Attribute: "weight", Value: "5 kg"}},
		})
	})
	s.srv = httptest.NewServer(faultinject.HTTPMiddleware(inj, mux))
	t.Cleanup(func() {
		// Reset lingering connections first so hung fault handlers unblock.
		s.srv.CloseClientConnections()
		s.srv.Close()
	})
	return s
}

// newRouter builds a Router over the stubs with deterministic jitter and a
// live recorder, registering cleanup.
func newRouter(t testing.TB, cfg Config, stubs ...*stub) (*Router, *obs.Recorder) {
	t.Helper()
	for _, s := range stubs {
		cfg.Backends = append(cfg.Backends, s.srv.URL)
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New(obs.Options{NoRuntimeStats: true})
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt, cfg.Obs
}

const singleBody = `{"id":"p1","html":"<html>weight is 5 kg.</html>"}`
const batchBody = `{"pages":[{"id":"p1","html":"a"},{"id":"p2","html":"b"}]}`

func doExtract(rt *Router, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/extract", strings.NewReader(body))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	return w
}

func doGet(rt *Router, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	return w
}

// warmSkewed probes the fleet so stubs[0] ends Healthy while the rest stay
// Suspect, making the first pick deterministic. The others' injectors must
// fail their first two health probes, and the router's FailThreshold must be
// 3 so two failures do not demote them below Suspect.
func warmSkewed(t testing.TB, rt *Router) {
	t.Helper()
	rt.ProbeAll(t.Context())
	rt.ProbeAll(t.Context())
	if got := rt.Backends()[0].State(); got != Healthy {
		t.Fatalf("backend 0 state = %v, want healthy", got)
	}
	for i, b := range rt.Backends()[1:] {
		if got := b.State(); got != Suspect {
			t.Fatalf("backend %d state = %v, want suspect", i+1, got)
		}
	}
}

// probeFail arms an injector that fails the first two health probes, used
// with warmSkewed to hold a backend at Suspect.
func probeFail() *faultinject.Injector {
	return faultinject.New(faultinject.Fault{
		Stage: faultinject.StageHTTPHealthz, Call: 1, Until: 2, Kind: faultinject.Error,
	})
}

func TestNew(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends should fail")
	}
	rt, err := New(Config{Backends: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	if got := rt.cfg.MaxAttempts; got != 3 {
		t.Fatalf("default MaxAttempts = %d, want 3", got)
	}
	if got := rt.Backends()[0].State(); got != Suspect {
		t.Fatalf("initial state = %v, want suspect", got)
	}
}

func TestBreakerTransitions(t *testing.T) {
	br := breaker{threshold: 2, cooldown: 20 * time.Millisecond}
	now := time.Now()
	if got := br.state(now); got != breakerClosed {
		t.Fatalf("initial state = %s, want closed", got)
	}
	if br.failure(now) {
		t.Fatal("failure below threshold should not open the circuit")
	}
	if !br.failure(now) {
		t.Fatal("failure at threshold should open the circuit")
	}
	if got := br.state(now); got != breakerOpen {
		t.Fatalf("state after threshold = %s, want open", got)
	}
	if br.tryTrial(now) {
		t.Fatal("trial must not run before the cooldown elapses")
	}
	if br.failure(now) {
		t.Fatal("straggler failure while open should not re-open")
	}

	later := now.Add(25 * time.Millisecond)
	if got := br.state(later); got != breakerHalfOpen {
		t.Fatalf("state after cooldown = %s, want half-open", got)
	}
	if !br.tryTrial(later) {
		t.Fatal("first trial after cooldown should be admitted")
	}
	if br.tryTrial(later) {
		t.Fatal("second concurrent trial should be rejected")
	}
	// Trial fails: circuit re-opens.
	if !br.failure(later) {
		t.Fatal("failed trial should re-open the circuit")
	}
	if got := br.opens; got != 2 {
		t.Fatalf("opens = %d, want 2", got)
	}

	// Trial succeeds: circuit closes.
	later = later.Add(25 * time.Millisecond)
	if !br.tryTrial(later) {
		t.Fatal("trial after second cooldown should be admitted")
	}
	br.success()
	if got := br.state(later); got != breakerClosed {
		t.Fatalf("state after successful trial = %s, want closed", got)
	}
	if br.failure(later) {
		t.Fatal("single failure after close should not re-open (streak reset)")
	}
}

func TestHealthLadder(t *testing.T) {
	b := &Backend{url: "x"}
	step := func(ok, draining bool) State {
		_, now := b.onProbe(ok, draining, "fp", "", "", 2, 2)
		return now
	}
	// Suspect → Healthy takes rise=2 consecutive successes.
	if got := step(true, false); got != Suspect {
		t.Fatalf("after 1 ok probe: %v, want suspect", got)
	}
	if got := step(true, false); got != Healthy {
		t.Fatalf("after 2 ok probes: %v, want healthy", got)
	}
	// One rung per threshold on the way down; a lone failure does nothing.
	if got := step(false, false); got != Healthy {
		t.Fatalf("after 1 failed probe: %v, want healthy", got)
	}
	if got := step(false, false); got != Suspect {
		t.Fatalf("after 2 failed probes: %v, want suspect", got)
	}
	if got := step(false, false); got != Suspect {
		t.Fatalf("after 3 failed probes: %v, want suspect", got)
	}
	if got := step(false, false); got != Down {
		t.Fatalf("after 4 failed probes: %v, want down", got)
	}
	// Recovery climbs back one rung at a time.
	step(true, false)
	if got := step(true, false); got != Suspect {
		t.Fatalf("recovery rung 1: %v, want suspect", got)
	}
	step(true, false)
	if got := step(true, false); got != Healthy {
		t.Fatalf("recovery rung 2: %v, want healthy", got)
	}
	// Draining skips the ladder entirely: the backend asked us to stop.
	if got := step(true, true); got != Down {
		t.Fatalf("draining: %v, want down", got)
	}
	if b.Fingerprint() != "fp" {
		t.Fatalf("fingerprint = %q, want fp", b.Fingerprint())
	}
}

// TestFlappingProbes drives the prober against a backend whose health
// endpoint fails for probes 3..6 (a flap), asserting the full trajectory
// suspect → healthy → suspect → down → suspect → healthy.
func TestFlappingProbes(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{
		Stage: faultinject.StageHTTPHealthz, Call: 3, Until: 6, Kind: faultinject.Error,
	})
	s := newStub(t, "fp-flap", inj)
	rt, rec := newRouter(t, Config{FailThreshold: 2, RiseThreshold: 2}, s)

	want := []State{Suspect, Healthy, Healthy, Suspect, Suspect, Down, Down, Suspect, Suspect, Healthy}
	b := rt.Backends()[0]
	for i, w := range want {
		rt.ProbeAll(t.Context())
		if got := b.State(); got != w {
			t.Fatalf("after probe %d: state = %v, want %v", i+1, got, w)
		}
	}
	if got := b.Fingerprint(); got != "fp-flap" {
		t.Fatalf("fingerprint = %q, want fp-flap", got)
	}
	if got := rec.Counter("fleet.probes"); got != 10 {
		t.Fatalf("fleet.probes = %d, want 10", got)
	}
	if got := rec.Counter("fleet.probe_failures"); got != 4 {
		t.Fatalf("fleet.probe_failures = %d, want 4", got)
	}
	// S→H, H→S, S→D, D→S, S→H.
	if got := rec.Counter("fleet.state_changes"); got != 5 {
		t.Fatalf("fleet.state_changes = %d, want 5", got)
	}
}

func TestDrainingProbeGoesStraightDown(t *testing.T) {
	s := newStub(t, "fp", nil)
	rt, _ := newRouter(t, Config{}, s)
	rt.ProbeAll(t.Context())
	rt.ProbeAll(t.Context())
	if got := rt.Backends()[0].State(); got != Healthy {
		t.Fatalf("state = %v, want healthy", got)
	}
	s.draining.Store(true)
	rt.ProbeAll(t.Context())
	if got := rt.Backends()[0].State(); got != Down {
		t.Fatalf("state after draining probe = %v, want down (no threshold)", got)
	}
	// Router itself now reports unroutable.
	if w := doGet(rt, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("router /healthz = %d, want 503", w.Code)
	}
}

// TestRetriesAbsorbFailingBackend sends a request to a fleet whose preferred
// backend 500s every extraction: the retry lands on the other replica and
// the client sees a clean 200.
func TestRetriesAbsorbFailingBackend(t *testing.T) {
	bad := newStub(t, "fp", faultinject.New(faultinject.Fault{
		Stage: faultinject.StageHTTPExtract, Call: 1, Until: faultinject.Forever, Kind: faultinject.Error,
	}))
	good := newStub(t, "fp", probeFail())
	rt, rec := newRouter(t, Config{
		FailThreshold: 3, RetryBackoff: time.Millisecond,
	}, bad, good)
	warmSkewed(t, rt)

	w := doExtract(rt, singleBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp serve.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Triples) == 0 {
		t.Fatalf("bad response %s (err %v)", w.Body, err)
	}
	if got := w.Header().Get(serve.BundleHeader); got != "fp" {
		t.Fatalf("%s = %q, want fp", serve.BundleHeader, got)
	}
	if got := bad.inj.Calls(faultinject.StageHTTPExtract); got != 1 {
		t.Fatalf("bad backend saw %d extract calls, want 1", got)
	}
	if got := rec.Counter("fleet.retries"); got != 1 {
		t.Fatalf("fleet.retries = %d, want 1", got)
	}
	if got := rec.Counter("fleet.success"); got != 1 {
		t.Fatalf("fleet.success = %d, want 1", got)
	}
}

// TestWireFaultsContained covers the three wire-level fault kinds: a hung
// backend, a connection reset mid-request, and a slow-loris response. All
// three must burn one attempt and be absorbed by a retry onto the healthy
// replica.
func TestWireFaultsContained(t *testing.T) {
	for _, kind := range []faultinject.Kind{faultinject.Hang, faultinject.Reset, faultinject.SlowLoris} {
		t.Run(kind.String(), func(t *testing.T) {
			faulty := newStub(t, "fp", faultinject.New(faultinject.Fault{
				Stage: faultinject.StageHTTPExtract, Call: 1, Until: faultinject.Forever, Kind: kind,
			}))
			good := newStub(t, "fp", probeFail())
			rt, rec := newRouter(t, Config{
				FailThreshold:  3,
				AttemptTimeout: 100 * time.Millisecond, // hang/slow-loris die here
				RetryBackoff:   time.Millisecond,
			}, faulty, good)
			warmSkewed(t, rt)

			start := time.Now()
			w := doExtract(rt, singleBody)
			if w.Code != http.StatusOK {
				t.Fatalf("status = %d, body %s", w.Code, w.Body)
			}
			if got := rec.Counter("fleet.retries"); got != 1 {
				t.Fatalf("fleet.retries = %d, want 1", got)
			}
			if el := time.Since(start); el > 2*time.Second {
				t.Fatalf("request took %v; fault not contained by the attempt timeout", el)
			}
		})
	}
}

// TestBreakerOverHTTP exhausts a lone backend's failure budget, asserts the
// open circuit makes the fleet unroutable, then recovers it through a
// half-open trial.
func TestBreakerOverHTTP(t *testing.T) {
	s := newStub(t, "fp", faultinject.New(faultinject.Fault{
		Stage: faultinject.StageHTTPExtract, Call: 1, Until: 2, Kind: faultinject.Error,
	}))
	rt, rec := newRouter(t, Config{
		MaxAttempts:      1,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	}, s)
	rt.ProbeAll(t.Context())
	rt.ProbeAll(t.Context())

	for i := 0; i < 2; i++ {
		if w := doExtract(rt, singleBody); w.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: status = %d, want 500 passthrough", i, w.Code)
		}
	}
	if got := rec.Counter("fleet.breaker_opens"); got != 1 {
		t.Fatalf("fleet.breaker_opens = %d, want 1", got)
	}
	// Open circuit: no routable backend, typed 503, router healthz degraded.
	w := doExtract(rt, singleBody)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "no routable backend") {
		t.Fatalf("open-circuit reply = %d %s, want typed 503", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("open-circuit 503 should carry Retry-After")
	}
	if w := doGet(rt, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("router /healthz with all circuits open = %d, want 503", w.Code)
	}

	// After the cooldown the half-open trial (fault expired) closes it.
	time.Sleep(60 * time.Millisecond)
	if w := doExtract(rt, singleBody); w.Code != http.StatusOK {
		t.Fatalf("trial request = %d %s, want 200", w.Code, w.Body)
	}
	if w := doGet(rt, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("router /healthz after recovery = %d, want 200", w.Code)
	}
}

// TestLoadShedding fills the router's in-flight budget and asserts the
// degradation order: batches are shed first, singles pass until the hard
// cap, everything past it is shed with a typed 503 + Retry-After.
func TestLoadShedding(t *testing.T) {
	slow := newStub(t, "fp", nil)
	slow.delay = 150 * time.Millisecond
	rt, rec := newRouter(t, Config{MaxInflight: 2, BatchShedFraction: 0.6}, slow)
	rt.ProbeAll(t.Context())
	rt.ProbeAll(t.Context())

	// Occupy one slot. At inflight=2 > 0.6·2 a batch is shed while a single
	// still passes.
	var wg sync.WaitGroup
	occupy := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if w := doExtract(rt, singleBody); w.Code != http.StatusOK {
					t.Errorf("occupying request failed: %d %s", w.Code, w.Body)
				}
			}()
		}
	}
	waitInflight := func(n int64) {
		deadline := time.Now().Add(2 * time.Second)
		for rt.inflight.Load() != n {
			if time.Now().After(deadline) {
				t.Fatalf("inflight never reached %d (at %d)", n, rt.inflight.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}

	occupy(1)
	waitInflight(1)
	w := doExtract(rt, batchBody)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch at 2/2 load = %d, want 503", w.Code)
	}
	var shed serve.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &shed); err != nil || !shed.Shed {
		t.Fatalf("shed reply not typed: %s (err %v)", w.Body, err)
	}
	if got := RetryAfter(w.Result().Header); got != time.Second {
		t.Fatalf("Retry-After = %v, want 1s", got)
	}
	if got := rec.Counter("fleet.shed_batch"); got != 1 {
		t.Fatalf("fleet.shed_batch = %d, want 1", got)
	}
	if w := doExtract(rt, singleBody); w.Code != http.StatusOK {
		t.Fatalf("single at batch-shed level = %d, want 200 (only batches shed)", w.Code)
	}
	wg.Wait()

	// Fill the hard cap: now even singles are shed.
	occupy(2)
	waitInflight(2)
	w = doExtract(rt, singleBody)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("single past hard cap = %d, want 503", w.Code)
	}
	if got := rec.Counter("fleet.shed_full"); got != 1 {
		t.Fatalf("fleet.shed_full = %d, want 1", got)
	}
	wg.Wait()
}

// TestFingerprintPinning routes against a fleet running two different bundle
// versions: with the preferred replica failing, the retry must refuse the
// replica with the other fingerprint rather than stitch model versions
// together — unless mixing is explicitly allowed.
func TestFingerprintPinning(t *testing.T) {
	mkFleet := func(t *testing.T, mixed bool) (*Router, *obs.Recorder) {
		vA := newStub(t, "fp-a", faultinject.New(faultinject.Fault{
			Stage: faultinject.StageHTTPExtract, Call: 1, Until: faultinject.Forever, Kind: faultinject.Error,
		}))
		vB := newStub(t, "fp-b", probeFail())
		rt, rec := newRouter(t, Config{
			FailThreshold: 3, RetryBackoff: time.Millisecond, AllowMixedFingerprints: mixed,
		}, vA, vB)
		warmSkewed(t, rt)
		// One more round: vB's probe faults have expired, so it now
		// advertises fp-b (still Suspect — one success short of promotion).
		rt.ProbeAll(t.Context())
		if got := rt.Backends()[1].Fingerprint(); got != "fp-b" {
			t.Fatalf("vB fingerprint = %q, want fp-b", got)
		}
		return rt, rec
	}

	t.Run("pinned", func(t *testing.T) {
		rt, rec := mkFleet(t, false)
		w := doExtract(rt, singleBody)
		if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "fingerprint") {
			t.Fatalf("pinned reply = %d %s, want typed 503", w.Code, w.Body)
		}
		if got := rec.Counter("fleet.errors"); got != 1 {
			t.Fatalf("fleet.errors = %d, want 1", got)
		}
	})
	t.Run("mixed-allowed", func(t *testing.T) {
		rt, _ := mkFleet(t, true)
		w := doExtract(rt, singleBody)
		if w.Code != http.StatusOK {
			t.Fatalf("mixed reply = %d %s, want 200 via the other version", w.Code, w.Body)
		}
		if got := w.Header().Get(serve.BundleHeader); got != "fp-b" {
			t.Fatalf("bundle = %q, want fp-b", got)
		}
	})
}

// TestFingerprintMismatchMidRollout covers the rollout race: a backend whose
// probe advertised the old bundle answers with the new one. The response
// must be discarded and the request retried on a replica still serving the
// pinned version.
func TestFingerprintMismatchMidRollout(t *testing.T) {
	rolling := newStub(t, "fp-old", nil)
	rolling.respFP = "fp-new" // reloaded between our probe and the request
	stable := newStub(t, "fp-old", probeFail())
	rt, rec := newRouter(t, Config{
		FailThreshold: 3, RetryBackoff: time.Millisecond,
	}, rolling, stable)
	warmSkewed(t, rt)

	w := doExtract(rt, singleBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if got := w.Header().Get(serve.BundleHeader); got != "fp-old" {
		t.Fatalf("client saw bundle %q, want the pinned fp-old", got)
	}
	if got := rec.Counter("fleet.fingerprint_mismatch"); got != 1 {
		t.Fatalf("fleet.fingerprint_mismatch = %d, want 1", got)
	}
	// The mismatch taught the router the rolling backend's real version.
	if got := rt.Backends()[0].Fingerprint(); got != "fp-new" {
		t.Fatalf("rolling backend fingerprint = %q, want refreshed fp-new", got)
	}
}

// TestPinDrainedCompletedRollout covers the tail end of a rollout: every
// backend has already swapped to the new bundle but the router's probe cache
// still says old, so a fresh request pins to a version nothing serves. The
// request must not fail — each mismatch corrects one cache entry, and once
// the pinned version is provably gone from the fleet the fresh response is
// accepted instead of discarded.
func TestPinDrainedCompletedRollout(t *testing.T) {
	a := newStub(t, "fp-old", nil)
	b := newStub(t, "fp-old", probeFail())
	a.respFP, b.respFP = "fp-new", "fp-new" // both reloaded since the last probe
	rt, rec := newRouter(t, Config{
		FailThreshold: 3, RetryBackoff: time.Millisecond,
	}, a, b)
	warmSkewed(t, rt)

	w := doExtract(rt, singleBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if got := w.Header().Get(serve.BundleHeader); got != "fp-new" {
		t.Fatalf("client saw bundle %q, want the rolled-out fp-new", got)
	}
	// Attempt 1 mismatches and corrects one cache entry; the retry's
	// mismatch proves the old version drained and is accepted.
	if got := rec.Counter("fleet.fingerprint_mismatch"); got != 2 {
		t.Fatalf("fleet.fingerprint_mismatch = %d, want 2", got)
	}
	if got := rec.Counter("fleet.pin_drained"); got != 1 {
		t.Fatalf("fleet.pin_drained = %d, want 1", got)
	}
	if got := rec.Counter("fleet.errors"); got != 0 {
		t.Fatalf("fleet.errors = %d, want 0 (the request must survive the swap)", got)
	}
	for i, want := range []string{"fp-new", "fp-new"} {
		if got := rt.Backends()[i].Fingerprint(); got != want {
			t.Fatalf("backend %d fingerprint = %q, want %q", i, got, want)
		}
	}
}

// TestPinDrainedDuringRetry covers a rollout that finishes while a request's
// first attempt is out: both backends served fp-v1 when the request pinned
// to it, the attempt fails with a 500, and by the retry every backend — and
// the router's probe cache — says fp-v2. The retry's pick finds nothing
// serving the pin; since the pinned version has left the fleet, the router
// must drop the pin and retry on the new version instead of answering 503.
func TestPinDrainedDuringRetry(t *testing.T) {
	var fp atomic.Pointer[string]
	v1, v2 := "fp-v1", "fp-v2"
	fp.Store(&v1)
	var rt *Router
	var rolled atomic.Bool
	backend := func(first bool, inj *faultinject.Injector) string {
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(serve.Health{Status: "ok", Bundle: *fp.Load(), Model: "stub"})
		})
		mux.HandleFunc("/extract", func(w http.ResponseWriter, r *http.Request) {
			if first && rolled.CompareAndSwap(false, true) {
				// The rollout lands mid-attempt: both backends reload
				// and a probe round records it before this one fails.
				fp.Store(&v2)
				rt.ProbeAll(r.Context())
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			w.Header().Set(serve.BundleHeader, *fp.Load())
			_ = json.NewEncoder(w).Encode(serve.Response{Bundle: *fp.Load(), Pages: 1})
		})
		srv := httptest.NewServer(faultinject.HTTPMiddleware(inj, mux))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	urls := []string{backend(true, nil), backend(false, probeFail())}
	rec := obs.New(obs.Options{NoRuntimeStats: true})
	var err error
	rt, err = New(Config{Backends: urls, FailThreshold: 3, RetryBackoff: time.Millisecond, Obs: rec, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	warmSkewed(t, rt)

	w := doExtract(rt, singleBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if got := w.Header().Get(serve.BundleHeader); got != v2 {
		t.Fatalf("client saw bundle %q, want the rolled-out %s", got, v2)
	}
	if got := rec.Counter("fleet.pin_drained"); got != 1 {
		t.Fatalf("fleet.pin_drained = %d, want 1", got)
	}
	if got := rec.Counter("fleet.errors"); got != 0 {
		t.Fatalf("fleet.errors = %d, want 0 (the request must survive the rollout)", got)
	}
}

// TestHedging arms tail-latency hedging against a slow-but-healthy replica:
// the hedge fires onto the fast one and its response wins.
func TestHedging(t *testing.T) {
	slow := newStub(t, "fp", nil)
	slow.delay = 400 * time.Millisecond
	fast := newStub(t, "fp", probeFail())
	rt, rec := newRouter(t, Config{
		FailThreshold: 3,
		HedgeAfter:    20 * time.Millisecond,
	}, slow, fast)
	warmSkewed(t, rt)

	start := time.Now()
	w := doExtract(rt, singleBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if el := time.Since(start); el >= 400*time.Millisecond {
		t.Fatalf("request took %v; hedge did not cut the tail", el)
	}
	if got := rec.Counter("fleet.hedges"); got != 1 {
		t.Fatalf("fleet.hedges = %d, want 1", got)
	}
	if got := rec.Counter("fleet.hedge_wins"); got != 1 {
		t.Fatalf("fleet.hedge_wins = %d, want 1", got)
	}
	if got := rec.Counter("fleet.retries"); got != 0 {
		t.Fatalf("fleet.retries = %d, want 0 (hedge, not retry)", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	rt, _ := newRouter(t, Config{RetryBackoff: 10 * time.Millisecond}, newStub(t, "fp", nil))
	for attempt := 1; attempt <= 8; attempt++ {
		base := 10 * time.Millisecond << (attempt - 1)
		if base > time.Second {
			base = time.Second
		}
		for i := 0; i < 50; i++ {
			d := rt.backoff(attempt)
			lo, hi := base/2, base+base/2
			if d < lo || d > hi {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
}

func TestRouterEndpoints(t *testing.T) {
	s := newStub(t, "fp-ep", nil)
	rt, _ := newRouter(t, Config{}, s)
	rt.ProbeAll(t.Context())
	rt.ProbeAll(t.Context())

	w := doGet(rt, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", w.Code)
	}
	var hz map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatalf("bad /healthz body: %v", err)
	}
	if hz["status"] != "ok" || hz["healthy"] != float64(1) {
		t.Fatalf("/healthz body = %v", hz)
	}

	w = doGet(rt, "/fleet")
	if w.Code != http.StatusOK {
		t.Fatalf("/fleet = %d, want 200", w.Code)
	}
	var fs FleetStatus
	if err := json.Unmarshal(w.Body.Bytes(), &fs); err != nil {
		t.Fatalf("bad /fleet body: %v", err)
	}
	if len(fs.Backends) != 1 || fs.Backends[0].State != "healthy" ||
		fs.Backends[0].Fingerprint != "fp-ep" || fs.Backends[0].Breaker != "closed" {
		t.Fatalf("/fleet body = %+v", fs)
	}

	// Method and body validation at the router's edge.
	if w := doGet(rt, "/extract"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /extract = %d, want 405", w.Code)
	}
	if w := doExtract(rt, "{not json"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad body = %d, want 400", w.Code)
	}
}

// TestOversizedBodyAtRouter asserts the router rejects oversized bodies
// itself instead of shipping them to a backend.
func TestOversizedBodyAtRouter(t *testing.T) {
	s := newStub(t, "fp", faultinject.New()) // empty injector = pure call counter
	rt, _ := newRouter(t, Config{}, s)
	big := fmt.Sprintf(`{"id":"p1","html":%q}`, strings.Repeat("x", serve.MaxBodyBytes+1))
	req := httptest.NewRequest(http.MethodPost, "/extract", strings.NewReader(big))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", w.Code)
	}
	if got := s.inj.Calls(faultinject.StageHTTPExtract); got != 0 {
		t.Fatalf("backend saw %d calls, want 0", got)
	}
}
