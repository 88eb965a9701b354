package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/crf"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/seed"
	"repro/internal/triples"
)

// corpusFor adapts a generated corpus to the pipeline input.
func corpusFor(gc *gen.Corpus) Corpus {
	return Corpus{Documents: gc.Pages, Queries: gc.Queries, Lang: gc.Lang}
}

// memo computes what several tests build identically — generated corpora,
// reference bootstraps — once per test binary, keyed by everything that
// shapes the value. A failed build fails every test that asks for it.
// Callers treat the returned value as read-only: it is shared.
func memo[T any](t *testing.T, key string, build func() (T, error)) T {
	t.Helper()
	v, _ := memos.LoadOrStore(key, new(memoEntry))
	e := v.(*memoEntry)
	e.once.Do(func() { e.val, e.err = build() })
	if e.err != nil {
		t.Fatalf("%s: %v", key, e.err)
	}
	return e.val.(T)
}

type memoEntry struct {
	once sync.Once
	val  any
	err  error
}

var memos sync.Map // key → *memoEntry

// generated is gen.Generate(cat, {Seed: seed, Items: items}) through memo.
func generated(t *testing.T, cat gen.Category, seed uint64, items int) *gen.Corpus {
	t.Helper()
	return memo(t, fmt.Sprintf("gen|%s|%d|%d", cat.Name, seed, items), func() (*gen.Corpus, error) {
		return gen.Generate(cat, gen.Options{Seed: seed, Items: items}), nil
	})
}

func fastConfig() Config {
	return Config{
		Iterations: 2,
		CRF:        crf.Config{MaxIter: 30},
	}
}

func runSmall(t *testing.T, cfg Config, items int) (*gen.Corpus, *Result) {
	t.Helper()
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: items})
	res, err := New(cfg).Run(corpusFor(gc))
	if err != nil {
		t.Fatal(err)
	}
	return gc, res
}

// oneIterationRun is runSmall over 120 pages with fastConfig() cut to one
// iteration: the unfiltered, fully cleaned run that the attribute-filter and
// cleaning-toggle tests both start from, computed once per test binary;
// callers must not modify it.
func oneIterationRun(t *testing.T) (*gen.Corpus, *Result) {
	t.Helper()
	type run struct {
		gc  *gen.Corpus
		res *Result
	}
	r := memo(t, "one-iteration|120", func() (run, error) {
		cfg := fastConfig()
		cfg.Iterations = 1
		gc := generated(t, gen.VacuumCleaner(), 9, 120)
		res, err := New(cfg).Run(corpusFor(gc))
		return run{gc, res}, err
	})
	return r.gc, r.res
}

func TestPipelineEndToEnd(t *testing.T) {
	gc, res := runSmall(t, fastConfig(), 120)
	if len(res.SeedPairs) == 0 {
		t.Fatal("no seed pairs")
	}
	if len(res.Attributes) == 0 {
		t.Fatal("no attributes discovered")
	}
	if len(res.SeedTriples) == 0 {
		t.Fatal("no seed triples")
	}
	if len(res.Iterations) == 0 {
		t.Fatal("no bootstrap iterations completed")
	}
	truth := eval.NewTruth(gc)

	seedRep := truth.Judge(res.SeedTriples)
	if seedRep.Precision() < 80 {
		t.Fatalf("seed precision = %.1f, suspiciously low (%+v)", seedRep.Precision(), seedRep)
	}
	final := res.FinalTriples()
	finalRep := truth.Judge(final)
	if finalRep.Precision() < 60 {
		t.Fatalf("final precision = %.1f (%+v)", finalRep.Precision(), finalRep)
	}
	seedCov := eval.Coverage(res.SeedTriples, len(gc.Pages))
	finalCov := eval.Coverage(final, len(gc.Pages))
	if finalCov <= seedCov {
		t.Fatalf("bootstrap did not increase coverage: seed %.1f final %.1f", seedCov, finalCov)
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := New(Config{}).Run(Corpus{}); err == nil {
		t.Fatal("empty corpus must error")
	}
	docs := []seed.Document{{ID: "p1", HTML: "<p>no tables at all</p>"}}
	if _, err := New(Config{}).Run(Corpus{Documents: docs}); err == nil {
		t.Fatal("corpus without dictionary tables must error")
	}
}

func TestAttrFilterRestrictsModel(t *testing.T) {
	cfg := fastConfig()
	cfg.Iterations = 1
	// The weight group's representative surface name depends on merchant
	// alias frequencies; resolve it from an unfiltered run first.
	gc, global := oneIterationRun(t)
	var rep string
	for _, a := range global.Attributes {
		if gc.Canon(a) == "重量" {
			rep = a
			break
		}
	}
	if rep == "" {
		t.Fatal("no weight attribute discovered")
	}
	cfg.AttrFilter = []string{rep}
	_, res := runSmall(t, cfg, 120)
	for _, a := range res.Attributes {
		if a != rep {
			t.Fatalf("attribute %q escaped the filter", a)
		}
	}
	for _, tr := range res.FinalTriples() {
		if tr.Attribute != rep {
			t.Fatalf("triple %+v escaped the filter", tr)
		}
	}
}

func TestAttrFilterUnknownAttributeErrors(t *testing.T) {
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 60})
	cfg := fastConfig()
	cfg.AttrFilter = []string{"存在しない属性"}
	if _, err := New(cfg).Run(corpusFor(gc)); err == nil {
		t.Fatal("filtering to an unknown attribute must error (empty seed)")
	}
}

func TestDisableTogglesTakeEffect(t *testing.T) {
	cfg := fastConfig()
	cfg.Iterations = 1
	_, full := oneIterationRun(t)

	cfg.DisableSyntacticCleaning = true
	cfg.DisableSemanticCleaning = true
	_, stripped := runSmall(t, cfg, 120)

	if len(full.Iterations) == 0 || len(stripped.Iterations) == 0 {
		t.Fatal("iterations missing")
	}
	if stripped.Iterations[0].Veto.Removed() != 0 {
		t.Fatal("veto ran despite DisableSyntacticCleaning")
	}
	if stripped.Iterations[0].SemanticRemoved != 0 {
		t.Fatal("semantic cleaning ran despite DisableSemanticCleaning")
	}
	// Without cleaning at least as many triples survive.
	if len(stripped.Iterations[0].Triples) < len(full.Iterations[0].Triples) {
		t.Fatalf("cleaning removed nothing: full=%d stripped=%d",
			len(full.Iterations[0].Triples), len(stripped.Iterations[0].Triples))
	}
}

func TestDiversificationAddsPairs(t *testing.T) {
	cfg := fastConfig()
	cfg.Iterations = 1
	_, with := runSmall(t, cfg, 150)
	cfg.DisableDiversification = true
	_, without := runSmall(t, cfg, 150)
	if len(with.SeedPairs) <= len(without.SeedPairs) {
		t.Fatalf("diversification added nothing: with=%d without=%d",
			len(with.SeedPairs), len(without.SeedPairs))
	}
}

func TestAggregationMergesAliasesInPipeline(t *testing.T) {
	_, res := runSmall(t, fastConfig(), 150)
	// Aggregation must fold at least some redundant surface names: the
	// modeled attribute set must be strictly smaller than the set of
	// distinct surface names harvested from the tables. (Which specific
	// aliases merge depends on value-overlap evidence at this corpus size;
	// unmerged aliases are handled by the evaluator's canonicalisation.)
	surfaces := make(map[string]bool)
	for _, c := range res.RawCandidates {
		surfaces[c.Attr] = true
	}
	merged := 0
	for s, r := range res.AttrRep {
		if s != r {
			merged++
		}
	}
	if merged == 0 {
		t.Fatalf("no aliases merged at all: %d surfaces, reps %v", len(surfaces), res.AttrRep)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := fastConfig()
	cfg.Iterations = 1
	_, a := runSmall(t, cfg, 100)
	_, b := runSmall(t, cfg, 100)
	ta, tb := a.FinalTriples(), b.FinalTriples()
	if len(ta) != len(tb) {
		t.Fatalf("triple counts differ: %d vs %d", len(ta), len(tb))
	}
	am := make(map[string]bool, len(ta))
	for _, tr := range ta {
		am[tr.Key()] = true
	}
	for _, tr := range tb {
		if !am[tr.Key()] {
			t.Fatalf("run mismatch on %+v", tr)
		}
	}
}

func TestIterationsAccumulateCoverage(t *testing.T) {
	cfg := fastConfig()
	cfg.Iterations = 3
	gc, res := runSmall(t, cfg, 120)
	if len(res.Iterations) < 2 {
		t.Skip("bootstrap ended early")
	}
	first := eval.Coverage(res.Iterations[0].Triples, len(gc.Pages))
	last := eval.Coverage(res.FinalTriples(), len(gc.Pages))
	// Cleaning may trim a few products between iterations, but coverage
	// must not collapse.
	if last < first-5 {
		t.Fatalf("coverage collapsed across iterations: %.1f → %.1f", first, last)
	}
}

func TestFinalTriplesFallsBackToSeed(t *testing.T) {
	r := &Result{SeedTriples: []triples.Triple{{ProductID: "p", Attribute: "a", Value: "v"}}}
	if got := r.FinalTriples(); len(got) != 1 {
		t.Fatalf("FinalTriples fallback = %v", got)
	}
}

func TestModelKindString(t *testing.T) {
	if CRF.String() != "CRF" || RNN.String() != "RNN" {
		t.Fatal("ModelKind names wrong")
	}
}
