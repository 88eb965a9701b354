package extract

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"context"
	"errors"
	"reflect"
	"repro/internal/corpus"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/obs"
	"repro/internal/seed"
)

// testBundle wraps the stub model in an in-memory bundle. Only Save/Load
// need the model codec, so Extractor tests can use a model the codec does
// not know.
func testBundle() *bundle.Bundle {
	return &bundle.Bundle{
		Manifest: bundle.Manifest{
			SchemaVersion: bundle.SchemaVersion,
			Lang:          "ja",
			ModelKind:     "stub",
			Attributes:    []string{"color", "weight"},
		},
		Model: stubModel{},
	}
}

const page = `<html><body>
<p>weight is 5 kg. color is red.</p>
</body></html>`

func TestExtractPage(t *testing.T) {
	x, err := New(testBundle(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := x.ExtractPage(context.Background(), "item-1", page)
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]string)
	for _, tr := range ts {
		if tr.ProductID != "item-1" {
			t.Fatalf("triple carries ProductID %q, want item-1", tr.ProductID)
		}
		found[tr.Attribute] = tr.Value
	}
	if found["weight"] != "5kg" || found["color"] != "red" {
		t.Fatalf("ExtractPage = %v, want weight=5kg and color=red", ts)
	}
}

func TestExtractPageConcurrentSafe(t *testing.T) {
	x, err := New(testBundle(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	base, err := x.ExtractPage(context.Background(), "p", page)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func() {
			ts, err := x.ExtractPage(context.Background(), "p", page)
			if err == nil && !reflect.DeepEqual(ts, base) {
				err = errors.New("concurrent extraction diverged")
			}
			errs <- err
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestExtractBatchDeterministicAcrossWorkers(t *testing.T) {
	var docs []seed.Document
	for i := 0; i < 24; i++ {
		docs = append(docs, seed.Document{ID: "p" + strings.Repeat("x", i%3), HTML: page})
	}
	x1, err := New(testBundle(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := x1.ExtractBatch(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("batch extracted nothing")
	}
	for _, workers := range []int{2, 8} {
		x, err := New(testBundle(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := x.ExtractBatch(context.Background(), docs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d changed batch output", workers)
		}
	}
}

func TestExtractPageCancellation(t *testing.T) {
	x, err := New(testBundle(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.ExtractPage(ctx, "p", page); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestNewRejectsEmptyBundle(t *testing.T) {
	if _, err := New(nil, Options{}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("New(nil) err = %v, want ErrNoModel", err)
	}
	if _, err := New(&bundle.Bundle{}, Options{}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("New(empty) err = %v, want ErrNoModel", err)
	}
}

// TestExtractorRecordsSpansAndCounters: the recorder gets the extraction
// counters, each call's record lands on the request's trace, and no span is
// left behind — a recorder shared with a long-lived server stays bounded.
func TestExtractorRecordsSpansAndCounters(t *testing.T) {
	rec := obs.New(obs.Options{NoRuntimeStats: true})
	x, err := New(testBundle(), Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("feedfacecafebeef")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	if _, err := x.ExtractPage(ctx, "p1", page); err != nil {
		t.Fatal(err)
	}
	if _, err := x.ExtractBatch(ctx, []seed.Document{{ID: "p2", HTML: page}}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("extract.pages"); got != 2 {
		t.Fatalf("extract.pages = %d, want 2", got)
	}
	if got := rec.Counter("extract.triples"); got == 0 {
		t.Fatal("extract.triples not recorded")
	}
	var names []string
	for _, e := range tr.Snapshot().Events {
		names = append(names, e.Msg)
	}
	if joined := strings.Join(names, ","); joined != "extract.page,extract.batch" {
		t.Fatalf("trace events = %v, want extract.page then extract.batch", names)
	}
	if rep := rec.Snapshot(); rep.Span != nil {
		t.Fatalf("extractor left a span tree: %+v", rep.Span)
	}
}

// TestExtractSourceMatchesBatch: streaming a sharded on-disk corpus through
// ExtractSource yields exactly what ExtractBatch yields over the same
// documents in memory — across chunk boundaries (150 docs > batchChunk),
// shard geometries, and worker counts.
func TestExtractSourceMatchesBatch(t *testing.T) {
	var docs []seed.Document
	for i := 0; i < 150; i++ {
		docs = append(docs, seed.Document{ID: fmt.Sprintf("p%03d", i), HTML: page})
	}
	x1, err := New(testBundle(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := x1.ExtractBatch(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("batch extracted nothing")
	}

	for _, shardSize := range []int{1000, 40} {
		dir := t.TempDir()
		w, err := corpus.NewWriter(dir, corpus.WriterOptions{Name: "x", Lang: "ja", ShardSize: shardSize})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			if err := w.WritePage(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			r, err := corpus.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			x, err := New(testBundle(), Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			src := r.Source()
			got, err := x.ExtractSource(context.Background(), src)
			src.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("shardSize=%d workers=%d: ExtractSource diverged from ExtractBatch", shardSize, workers)
			}
		}
	}
}

// TestExtractSourceCorruptShard: a damaged shard surfaces the corpus layer's
// typed error through the extractor, never a panic or a partial result.
func TestExtractSourceCorruptShard(t *testing.T) {
	dir := t.TempDir()
	w, err := corpus.NewWriter(dir, corpus.WriterOptions{Name: "x", Lang: "ja", ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := w.WritePage(seed.Document{ID: fmt.Sprintf("p%d", i), HTML: page}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, "shards", "shard-0001.jsonl")
	raw, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte("weight"), []byte("WEIGHT"), 1)
	if err := os.WriteFile(shard, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(testBundle(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := r.Source()
	defer src.Close()
	if _, err := x.ExtractSource(context.Background(), src); !errors.Is(err, corpus.ErrFingerprint) {
		t.Fatalf("got %v, want corpus.ErrFingerprint", err)
	}
}
