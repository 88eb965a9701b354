package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bundle"
	"repro/internal/cleaning"
	"repro/internal/crf"
	"repro/internal/extract"
	"repro/internal/gen"
	"repro/internal/seed"
	"repro/internal/tagger"
	"repro/internal/text"
	"repro/internal/workload"
)

// TestBundleGoldenEndToEnd is the acceptance test of the train/serve split:
// train → Result.Bundle() → SaveFile → extract.Open → ExtractBatch must
// reproduce the in-bootstrap tagger byte for byte, for Workers ∈ {1, 8}.
func TestBundleGoldenEndToEnd(t *testing.T) {
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 90})
	corpus := corpusFor(gc)
	cfg := Config{Iterations: 2, CRF: crf.Config{MaxIter: 30}, MinConfidence: 0.05}
	res, err := New(cfg).Run(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 2 || !res.StopReason.Completed() {
		t.Fatalf("training run incomplete: %s", res.Describe())
	}

	b, err := res.Bundle()
	if err != nil {
		t.Fatal(err)
	}
	m := b.Manifest
	if m.SchemaVersion != bundle.SchemaVersion || m.Lang != corpus.Lang || m.ModelKind != "CRF" {
		t.Fatalf("manifest = %+v", m)
	}
	if m.MinConfidence != cfg.MinConfidence || len(m.Attributes) == 0 || len(m.AttrRep) == 0 {
		t.Fatalf("manifest lost settings: %+v", m)
	}
	if m.Provenance.Iterations != 2 || m.Provenance.Triples != len(res.FinalTriples()) ||
		m.Provenance.ConfigFingerprint == "" {
		t.Fatalf("provenance = %+v", m.Provenance)
	}

	path := filepath.Join(t.TempDir(), "run.paeb")
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// The in-bootstrap reference: the last iteration's tag stage is the final
	// model over the prepared corpus — its raw span count was recorded in
	// TaggedCandidates — followed by the corpus-wide veto.
	loaded, err := bundle.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scfg := seed.Config{Tokenizer: text.ForLanguage(corpus.Lang)}.WithDefaults()
	var sents []seed.SentenceOf
	for _, d := range corpus.Documents {
		sents = append(sents, seed.SplitDocument(d, scfg)...)
	}
	eng := extract.Engine{Model: loaded.Model, MinConfidence: loaded.Manifest.MinConfidence}
	tagged, err := eng.TagSentences(context.Background(), sents)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tagged), res.Iterations[1].TaggedCandidates; got != want {
		t.Fatalf("bundled model tagged %d candidates, in-bootstrap tagger tagged %d", got, want)
	}
	ref, _ := cleaning.ApplyVetoFor(workload.DetailPage, tagged, loaded.Manifest.Veto)

	for _, workers := range []int{1, 8} {
		x, err := extract.Open(path, extract.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := x.ExtractBatch(context.Background(), corpus.Documents)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: serve-time extraction diverged from the in-bootstrap tagger: %d vs %d triples",
				workers, len(got), len(ref))
		}
		// A single page served through ExtractPage agrees with its slice of
		// the batch (modulo the per-page popularity rule, which can only keep
		// more, never different values).
		one, err := x.ExtractPage(context.Background(), corpus.Documents[0].ID, corpus.Documents[0].HTML)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range one {
			if tr.ProductID != corpus.Documents[0].ID {
				t.Fatalf("ExtractPage triple has wrong product: %+v", tr)
			}
		}
	}
}

// A run with no completed bootstrap iteration has no model to freeze.
func TestBundleSeedOnlyFailsTyped(t *testing.T) {
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 60})
	cfg := Config{Iterations: SeedOnly}
	res, err := New(cfg).Run(corpusFor(gc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Bundle(); !errors.Is(err, ErrNoModel) {
		t.Fatalf("Bundle() err = %v, want ErrNoModel", err)
	}
}

// The manifest's AttrRep must come out sorted regardless of map iteration
// order, so the encoded bundle is byte-stable.
func TestBundleAttrRepSorted(t *testing.T) {
	model, err := crf.Trainer{Config: crf.Config{MaxIter: 5}}.Fit([]tagger.Sequence{{
		Tokens: []string{"red"}, PoS: []string{"NN"}, Labels: []string{"B-color"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := &Result{
		AttrRep:    map[string]string{"zeta": "color", "alpha": "color", "mid": "color"},
		finalModel: model,
	}
	for i := 0; i < 5; i++ {
		b, err := r.Bundle()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(b.Manifest.AttrRep))
		for j, am := range b.Manifest.AttrRep {
			got[j] = am.Surface
		}
		if !sort.StringsAreSorted(got) {
			t.Fatalf("AttrRep not sorted: %v", got)
		}
	}
}
