package promote

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/serve"
)

// The gate logic in isolation: which deltas regress under which tolerances.
func TestDeltaGate(t *testing.T) {
	tol := Tolerance{MaxPrecisionDrop: 0.02, MaxCoverageDrop: 0.02}
	cases := []struct {
		name       string
		live, cand Metrics
		regressed  bool
	}{
		{"identical", Metrics{0.9, 0.8, 50}, Metrics{0.9, 0.8, 50}, false},
		{"improved", Metrics{0.9, 0.8, 50}, Metrics{0.95, 0.9, 60}, false},
		{"precision drop within tolerance", Metrics{0.9, 0.8, 50}, Metrics{0.89, 0.8, 50}, false},
		{"precision drop beyond tolerance", Metrics{0.9, 0.8, 50}, Metrics{0.85, 0.8, 50}, true},
		{"coverage drop beyond tolerance", Metrics{0.9, 0.8, 50}, Metrics{0.9, 0.5, 30}, true},
		{"attribute disappeared", Metrics{0.9, 0.8, 50}, Metrics{0, 0, 0}, true},
		{"attribute appeared", Metrics{0, 0, 0}, Metrics{0.9, 0.8, 50}, false},
		{"no baseline precision", Metrics{0, 0.1, 0}, Metrics{0.5, 0.1, 5}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := delta("attr", tc.live, tc.cand, tol)
			if d.Regressed != tc.regressed {
				t.Fatalf("delta(%+v, %+v).Regressed = %t, want %t (reason %q)",
					tc.live, tc.cand, d.Regressed, tc.regressed, d.Reason)
			}
			if d.Regressed && d.Reason == "" {
				t.Fatal("regression without a reason")
			}
		})
	}
	// The zero tolerance rejects any drop at all.
	d := delta("attr", Metrics{0.9, 0.8, 50}, Metrics{0.899, 0.8, 50}, Tolerance{})
	if !d.Regressed {
		t.Fatal("zero tolerance accepted a precision drop")
	}
}

// truthCorpus writes a generated corpus — pages, queries, aliases, and the
// planted truth the gate judges against — in the sharded layout.
func truthCorpus(t *testing.T, gc *gen.Corpus, shardSize int) string {
	t.Helper()
	dir := t.TempDir()
	w, err := corpus.NewWriter(dir, corpus.WriterOptions{Name: gc.Name, Lang: gc.Lang, ShardSize: shardSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range gc.Pages {
		if err := w.WritePage(p); err != nil {
			t.Fatal(err)
		}
	}
	w.SetQueries(gc.Queries)
	w.SetAliases(gc.Aliases)
	for _, tr := range gc.Truth {
		if err := w.WriteTruth(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// trainBundle bootstraps a model on the corpus and writes it as a .paeb.
func trainBundle(t *testing.T, dir string, gc *gen.Corpus) string {
	t.Helper()
	r, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := r.Source()
	defer src.Close()
	cfg := core.Config{Iterations: 2, CRF: crf.Config{MaxIter: 30}}
	res, err := core.New(cfg).RunSource(context.Background(),
		core.Input{Source: src, Queries: gc.Queries, Lang: gc.Lang})
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.Bundle()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "live.paeb")
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// sabotage clones a bundle with an absurd confidence floor: extraction
// coverage collapses while the artifact stays perfectly well-formed — the
// cheapest honest way to make a "bad model".
func sabotage(t *testing.T, livePath string) string {
	t.Helper()
	b, err := bundle.LoadFile(livePath)
	if err != nil {
		t.Fatal(err)
	}
	b2 := &bundle.Bundle{Manifest: b.Manifest, Model: b.Model}
	b2.Manifest.MinConfidence = 0.999999
	path := filepath.Join(t.TempDir(), "bad.paeb")
	if err := b2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// Diff end to end on real bundles: a self-diff passes the gate, a sabotaged
// candidate is rejected with a machine-readable coverage regression.
func TestDiffVerdicts(t *testing.T) {
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 60})
	dir := truthCorpus(t, gc, 20)
	live := trainBundle(t, dir, gc)

	rep, err := Diff(context.Background(), live, live, dir, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Promote || len(rep.Regressions) != 0 {
		t.Fatalf("self-diff rejected: %+v", rep.Regressions)
	}
	if rep.LiveFingerprint != rep.CandidateFingerprint {
		t.Fatal("self-diff fingerprints differ")
	}
	if rep.Overall.PrecisionDelta != 0 || rep.Overall.CoverageDelta != 0 {
		t.Fatalf("self-diff deltas nonzero: %+v", rep.Overall)
	}
	if rep.TruthJudgments == 0 {
		t.Fatal("no truth judgments counted")
	}
	if rep.Overall.Live.Coverage <= 0 {
		t.Fatalf("live bundle extracted nothing: %+v", rep.Overall.Live)
	}

	bad := sabotage(t, live)
	rep, err = Diff(context.Background(), live, bad, dir, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Promote {
		t.Fatalf("sabotaged candidate passed the gate: %+v", rep.Overall)
	}
	if len(rep.Regressions) == 0 {
		t.Fatal("rejection without named regressions")
	}
	if rep.LiveFingerprint == rep.CandidateFingerprint {
		t.Fatal("sabotaged bundle kept the live fingerprint")
	}
	if rep.Overall.CoverageDelta >= 0 {
		t.Fatalf("sabotage did not drop coverage: %+v", rep.Overall)
	}
	// The verdict must survive its JSON wire trip (paepromote consumes it).
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Promote || back.CandidateFingerprint != rep.CandidateFingerprint {
		t.Fatalf("verdict changed across JSON: %+v", back)
	}

	if _, err := Diff(context.Background(), live, live, t.TempDir(), DefaultTolerance); err == nil {
		t.Fatal("diff against an empty directory succeeded")
	}
}

// fakeFleet is an in-memory router + backends: /fleet reflects each
// backend's current fingerprint, /admin/reload swaps it.
type fakeFleet struct {
	mu       sync.Mutex
	fps      map[string]string // backend URL -> fingerprint
	failNext bool
}

func newFakeFleet(t *testing.T, n int) (*fakeFleet, *Client) {
	t.Helper()
	ff := &fakeFleet{fps: map[string]string{}}
	for i := 0; i < n; i++ {
		var url string
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/admin/reload" || r.Method != http.MethodPost {
				http.NotFound(w, r)
				return
			}
			ff.mu.Lock()
			defer ff.mu.Unlock()
			if ff.failNext {
				ff.failNext = false
				http.Error(w, "reload exploded", http.StatusInternalServerError)
				return
			}
			var req serve.ReloadRequest
			json.NewDecoder(r.Body).Decode(&req)
			old := ff.fps[url]
			ff.fps[url] = "fp-" + req.Bundle
			json.NewEncoder(w).Encode(serve.ReloadResponse{Old: old, New: ff.fps[url], Bundle: req.Bundle})
		}))
		t.Cleanup(srv.Close)
		url = srv.URL
		ff.mu.Lock()
		ff.fps[url] = "fp-old"
		ff.mu.Unlock()
	}
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fleet" {
			http.NotFound(w, r)
			return
		}
		ff.mu.Lock()
		st := fleet.FleetStatus{}
		for u, fp := range ff.fps {
			st.Backends = append(st.Backends, fleet.BackendStatus{URL: u, State: "up", Fingerprint: fp})
		}
		ff.mu.Unlock()
		json.NewEncoder(w).Encode(st)
	}))
	t.Cleanup(router.Close)
	return ff, NewClient(router.URL, nil)
}

func TestPromoteRollsWholeFleet(t *testing.T) {
	ff, c := newFakeFleet(t, 3)
	ro, err := c.Promote(context.Background(), "new.paeb", "fp-new.paeb")
	if err != nil {
		t.Fatal(err)
	}
	if len(ro.Reloads) != 3 {
		t.Fatalf("reloaded %d backends, want 3", len(ro.Reloads))
	}
	for _, rr := range ro.Reloads {
		if rr.Old != "fp-old" || rr.New != "fp-new.paeb" {
			t.Fatalf("unexpected swap %+v", rr)
		}
	}
	ff.mu.Lock()
	defer ff.mu.Unlock()
	for u, fp := range ff.fps {
		if fp != "fp-new.paeb" {
			t.Fatalf("backend %s still serves %s", u, fp)
		}
	}
}

func TestPromoteFailsTyped(t *testing.T) {
	ff, c := newFakeFleet(t, 2)
	ff.mu.Lock()
	ff.failNext = true
	ff.mu.Unlock()
	if _, err := c.Promote(context.Background(), "new.paeb", "fp-new.paeb"); !errors.Is(err, ErrRollout) {
		t.Fatalf("err = %v, want ErrRollout", err)
	}
	// Wrong expected fingerprint: the reload succeeds but the gate catches
	// the mismatch.
	if _, err := c.Promote(context.Background(), "new.paeb", "fp-something-else"); !errors.Is(err, ErrRollout) {
		t.Fatalf("err = %v, want ErrRollout on fingerprint mismatch", err)
	}
}
