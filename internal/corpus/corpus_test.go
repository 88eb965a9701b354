package corpus

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/seed"
)

// testDocs builds n small deterministic documents.
func testDocs(n int) []seed.Document {
	docs := make([]seed.Document, n)
	for i := range docs {
		docs[i] = seed.Document{
			ID:   fmt.Sprintf("p%03d", i),
			HTML: fmt.Sprintf("<html><body>page %d: 重さ 2.%dkg</body></html>", i, i%10),
		}
	}
	return docs
}

// writeCorpus writes docs (plus optional truth) into a fresh directory.
func writeCorpus(t *testing.T, docs []seed.Document, shardSize int, truth []gen.TruthTriple) string {
	t.Helper()
	dir := t.TempDir()
	w, err := NewWriter(dir, WriterOptions{Name: "test-cat", Lang: "ja", ShardSize: shardSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := w.WritePage(d); err != nil {
			t.Fatal(err)
		}
	}
	w.SetQueries([]string{"q1", "q2"})
	w.SetAliases(map[string]string{"重量": "重さ"})
	for _, tr := range truth {
		if err := w.WriteTruth(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// drain pulls every document out of a source.
func drain(t *testing.T, src Source) []seed.Document {
	t.Helper()
	var out []seed.Document
	for {
		d, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next after %d docs: %v", len(out), err)
		}
		out = append(out, d)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	docs := testDocs(10)
	truth := []gen.TruthTriple{
		{ProductID: "p000", Attribute: "重さ", Value: "2.0kg", Correct: true},
		{ProductID: "p001", Attribute: "重さ", Value: "9kg", Correct: false},
	}
	dir := writeCorpus(t, docs, 3, truth)

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Manifest
	if m.SchemaVersion != SchemaVersion || m.Name != "test-cat" || m.Lang != "ja" {
		t.Fatalf("manifest header: %+v", m)
	}
	if m.Pages != 10 || m.ShardSize != 3 || len(m.Shards) != 4 {
		t.Fatalf("shard geometry: pages=%d shardSize=%d shards=%d", m.Pages, m.ShardSize, len(m.Shards))
	}
	if m.Shards[0].Pages != 3 || m.Shards[3].Pages != 1 {
		t.Fatalf("per-shard pages: %+v", m.Shards)
	}
	if m.TruthCount != 2 || m.TruthFile == "" {
		t.Fatalf("truth sidecar: count=%d file=%q", m.TruthCount, m.TruthFile)
	}

	src := r.Source()
	defer src.Close()
	if got := drain(t, src); !reflect.DeepEqual(got, docs) {
		t.Fatal("streamed documents differ from what was written")
	}
	// Reset must replay the identical stream — the bootstrap's two-pass
	// contract.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, src); !reflect.DeepEqual(got, docs) {
		t.Fatal("stream after Reset differs from first pass")
	}

	if ca, ok := src.(ContentAddressed); !ok || len(ca.ShardInfos()) != 4 {
		t.Fatalf("ContentAddressed: ok=%v", ok)
	}

	gotTruth, err := r.Truth()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTruth, truth) {
		t.Fatalf("truth round-trip: got %+v", gotTruth)
	}
	ec, err := r.EvalCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if ec == nil || ec.Name != "test-cat" || len(ec.Truth) != 2 || ec.Aliases["重量"] != "重さ" {
		t.Fatalf("EvalCorpus: %+v", ec)
	}
}

// TestStreamInvariantOfShardSize: the same pages written at different shard
// sizes stream back identically — the property every consumer's
// layout-invariance rests on.
func TestStreamInvariantOfShardSize(t *testing.T) {
	docs := testDocs(23)
	var base []seed.Document
	for i, size := range []int{1, 7, 1000} {
		dir := writeCorpus(t, docs, size, nil)
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		src := r.Source()
		got := drain(t, src)
		src.Close()
		if i == 0 {
			base = got
			continue
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("shard size %d streams a different document sequence", size)
		}
	}
}

// TestShardedFilesDeterministic: writing the same pages twice produces
// byte-identical shards (the manifest fingerprints double as content
// addresses).
func TestShardedFilesDeterministic(t *testing.T) {
	docs := testDocs(9)
	a := writeCorpus(t, docs, 4, nil)
	b := writeCorpus(t, docs, 4, nil)
	ma, _ := ReadManifest(a)
	mb, _ := ReadManifest(b)
	if !reflect.DeepEqual(ma.Shards, mb.Shards) {
		t.Fatalf("shard fingerprints differ between identical writes:\n%+v\n%+v", ma.Shards, mb.Shards)
	}
}

func TestOpenNotCorpus(t *testing.T) {
	if _, err := Open(t.TempDir()); !errors.Is(err, ErrNotCorpus) {
		t.Fatalf("empty dir: got %v, want ErrNotCorpus", err)
	}
	// A directory in the retired flat layout (manifest.json plus one HTML
	// file per page) is not a corpus either.
	flat := t.TempDir()
	if err := os.MkdirAll(filepath.Join(flat, "pages"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(flat, "pages", "p000.html"), []byte("<p>x</p>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(flat, "manifest.json"), []byte(`{"category":"c","lang":"ja","pages":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(flat); !errors.Is(err, ErrNotCorpus) {
		t.Fatalf("flat dir: got %v, want ErrNotCorpus", err)
	}
}

func TestOpenSchemaVersionMismatch(t *testing.T) {
	dir := writeCorpus(t, testDocs(2), 2, nil)
	raw, err := os.ReadFile(filepath.Join(dir, "corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["schema_version"] = SchemaVersion + 1
	raw, _ = json.Marshal(m)
	if err := os.WriteFile(filepath.Join(dir, "corpus.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if !errors.Is(err, ErrSchemaVersion) {
		t.Fatalf("got %v, want ErrSchemaVersion", err)
	}
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != SchemaVersion+1 {
		t.Fatalf("VersionError detail: %v", err)
	}
}

// TestCorruptShard: a modified shard fails the fingerprint check; a truncated
// shard fails the page-count check. Both are typed errors, never a panic or a
// silent short read.
func TestCorruptShard(t *testing.T) {
	t.Run("modified", func(t *testing.T) {
		dir := writeCorpus(t, testDocs(6), 3, nil)
		shard := filepath.Join(dir, "shards", "shard-0000.jsonl")
		raw, err := os.ReadFile(shard)
		if err != nil {
			t.Fatal(err)
		}
		// Alter a digit inside a page body: the line still parses and the
		// page count still matches — only the hash changes.
		raw = bytes.Replace(raw, []byte("page 0:"), []byte("page 9:"), 1)
		if err := os.WriteFile(shard, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		src := r.Source()
		defer src.Close()
		_, err = ForEachChunk(src, 2, func([]seed.Document, int) error { return nil })
		if !errors.Is(err, ErrFingerprint) {
			t.Fatalf("got %v, want ErrFingerprint", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		dir := writeCorpus(t, testDocs(6), 3, nil)
		shard := filepath.Join(dir, "shards", "shard-0001.jsonl")
		raw, err := os.ReadFile(shard)
		if err != nil {
			t.Fatal(err)
		}
		// Drop the last line entirely: the page count disagrees with the
		// manifest.
		cut := len(raw) - 1
		for cut > 0 && raw[cut-1] != '\n' {
			cut--
		}
		if err := os.WriteFile(shard, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		src := r.Source()
		defer src.Close()
		_, err = ForEachChunk(src, 2, func([]seed.Document, int) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("undecodable", func(t *testing.T) {
		dir := writeCorpus(t, testDocs(4), 2, nil)
		shard := filepath.Join(dir, "shards", "shard-0000.jsonl")
		if err := os.WriteFile(shard, []byte("this is not json\n{\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		src := r.Source()
		defer src.Close()
		_, err = ForEachChunk(src, 2, func([]seed.Document, int) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("missing", func(t *testing.T) {
		dir := writeCorpus(t, testDocs(4), 2, nil)
		if err := os.Remove(filepath.Join(dir, "shards", "shard-0001.jsonl")); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		src := r.Source()
		defer src.Close()
		_, err = ForEachChunk(src, 2, func([]seed.Document, int) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

func TestForEachChunkBoundaries(t *testing.T) {
	docs := testDocs(10)
	var bases []int
	var sizes []int
	total, err := ForEachChunk(NewSliceSource(docs), 4, func(chunk []seed.Document, base int) error {
		bases = append(bases, base)
		sizes = append(sizes, len(chunk))
		return nil
	})
	if err != nil || total != 10 {
		t.Fatalf("total=%d err=%v", total, err)
	}
	if !reflect.DeepEqual(bases, []int{0, 4, 8}) || !reflect.DeepEqual(sizes, []int{4, 4, 2}) {
		t.Fatalf("chunking: bases=%v sizes=%v", bases, sizes)
	}
	// Zero-document source: no calls, no error.
	calls := 0
	total, err = ForEachChunk(NewSliceSource(nil), 4, func([]seed.Document, int) error { calls++; return nil })
	if err != nil || total != 0 || calls != 0 {
		t.Fatalf("empty source: total=%d calls=%d err=%v", total, calls, err)
	}
}

// TestInstrumentedCounters: a sharded read reports shard opens and bytes read.
func TestInstrumentedCounters(t *testing.T) {
	dir := writeCorpus(t, testDocs(8), 3, nil)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New(obs.Options{})
	root := rec.StartRun("test")
	src := r.Source()
	defer src.Close()
	src.(Instrumented).Instrument(rec, root)
	drain(t, src)
	root.End(nil)
	rep := rec.Snapshot()
	if rep.Counters["corpus.shards"] != 3 {
		t.Fatalf("corpus.shards=%d, want 3", rep.Counters["corpus.shards"])
	}
	if rep.Counters["corpus.bytes_read"] <= 0 {
		t.Fatal("corpus.bytes_read not recorded")
	}
}

// TestManifestIsCommitPoint: before Close the directory is not a corpus, so a
// crash mid-write can never look like a complete corpus.
func TestManifestIsCommitPoint(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, WriterOptions{Name: "c", Lang: "ja"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePage(seed.Document{ID: "p", HTML: "<html/>"}); err != nil {
		t.Fatal(err)
	}
	if IsDir(dir) {
		t.Fatal("directory advertises a manifest before Close")
	}
	if _, err := Open(dir); !errors.Is(err, ErrNotCorpus) {
		t.Fatalf("pre-Close open: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !IsDir(dir) {
		t.Fatal("Close did not commit the manifest")
	}
}
