package pae_test

import (
	"context"
	"errors"
	"testing"

	pae "repro"
	"repro/internal/crf"
	"repro/internal/gen"
)

// TestPublicAPI exercises the package exactly the way the README quickstart
// does.
func TestPublicAPI(t *testing.T) {
	gc := gen.Generate(gen.Tennis(), gen.Options{Seed: 4, Items: 90})
	res, err := pae.Run(
		pae.Corpus{Documents: gc.Pages, Queries: gc.Queries, Lang: "ja"},
		pae.Config{Iterations: 1, CRF: crf.Config{MaxIter: 25}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalTriples()) == 0 {
		t.Fatal("no triples extracted through the public API")
	}
	var sawWeight bool
	for _, tr := range res.FinalTriples() {
		if tr.ProductID == "" || tr.Attribute == "" || tr.Value == "" {
			t.Fatalf("malformed triple %+v", tr)
		}
		if tr.Attribute == "重量" || tr.Attribute == "本体重量" || tr.Attribute == "重さ" {
			sawWeight = true
		}
	}
	if !sawWeight {
		t.Log("note: no weight triples in this small run (not fatal)")
	}
}

func TestPublicAPIModelKinds(t *testing.T) {
	if pae.CRF.String() != "CRF" || pae.RNN.String() != "RNN" {
		t.Fatal("model kind constants broken")
	}
}

// TestPublicAPICancellation exercises the context-aware entry point and the
// exported error taxonomy: a canceled run ends gracefully with the typed
// cause in Result.StopReason, matchable through the re-exported sentinels.
func TestPublicAPICancellation(t *testing.T) {
	gc := gen.Generate(gen.Tennis(), gen.Options{Seed: 4, Items: 90})
	corpus := pae.Corpus{Documents: gc.Pages, Queries: gc.Queries, Lang: "ja"}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := pae.RunContext(ctx, corpus, pae.Config{Iterations: 1, CRF: crf.Config{MaxIter: 25}})
	if !errors.Is(err, pae.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled RunContext err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Fatal("pre-start cancellation returned a Result")
	}

	// An uncancelable context behaves exactly like Run.
	res, err = pae.RunContext(context.Background(), corpus, pae.Config{Iterations: 1, CRF: crf.Config{MaxIter: 25}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StopReason.Completed() || len(res.FinalTriples()) == 0 {
		t.Fatalf("RunContext run did not complete: %s", res.Describe())
	}
}

// TestPublicAPIErrorTaxonomy checks the empty-corpus typed error through the
// package front door.
func TestPublicAPIErrorTaxonomy(t *testing.T) {
	_, err := pae.Run(pae.Corpus{}, pae.Config{})
	if !errors.Is(err, pae.ErrNoDocuments) {
		t.Fatalf("empty corpus err = %v, want ErrNoDocuments", err)
	}
}
