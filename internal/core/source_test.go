package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/seed"
)

// shardGenCorpus writes a generated corpus to disk in the sharded format and
// returns the directory.
func shardGenCorpus(t *testing.T, gc *gen.Corpus, shardSize int) string {
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
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRunSourceLayoutInvariant is the tentpole acceptance test: the bootstrap
// produces byte-identical final triples, per-iteration statistics, report
// fingerprints, and model-bundle fingerprints whether the corpus lives in
// memory, in one shard, or in many shards — at any worker count, with the
// prepared corpus in memory or spilled to disk.
func TestRunSourceLayoutInvariant(t *testing.T) {
	gc := generated(t, gen.VacuumCleaner(), 9, 90)
	// 90 pages at shard size 13 → 7 shards; at 1000 → 1 shard.
	oneShard := shardGenCorpus(t, gc, 1000)
	sevenShards := shardGenCorpus(t, gc, 13)

	type variant struct {
		name    string
		dir     string // "" = in-memory SliceSource
		workers int
		spill   bool
	}
	variants := []variant{
		{"inmem/w8", "", 8, false},
		{"shard1/w1", oneShard, 1, false},
		{"shard7/w1", sevenShards, 1, false},
		{"shard7/w8", sevenShards, 8, false},
		{"shard7/w8/spill", sevenShards, 8, true},
		{"shard1/w1/spill", oneShard, 1, true},
	}

	run := func(v variant) (*Result, *obs.Report) {
		t.Helper()
		cfg := fastConfig()
		cfg.Parallelism = v.workers
		if v.spill {
			cfg.Spill = t.TempDir()
		}
		rec := obs.New(obs.Options{})
		cfg.Obs = rec
		var src corpus.Source
		if v.dir == "" {
			src = corpus.NewSliceSource(corpusFor(gc).Documents)
		} else {
			r, err := corpus.Open(v.dir)
			if err != nil {
				t.Fatal(err)
			}
			src = r.Source()
		}
		defer src.Close()
		res, err := New(cfg).RunSource(context.Background(),
			Input{Source: src, Queries: gc.Queries, Lang: gc.Lang})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		return res, rec.Snapshot()
	}

	// Reference: the unchanged in-memory API at Workers=1.
	base, baseRep := serialReference(t)
	baseBundle, err := base.Bundle()
	if err != nil {
		t.Fatal(err)
	}

	for _, v := range variants {
		res, rep := run(v)
		if !reflect.DeepEqual(res.FinalTriples(), base.FinalTriples()) {
			t.Fatalf("%s: final triples differ from in-memory serial run", v.name)
		}
		if !reflect.DeepEqual(res.SeedTriples, base.SeedTriples) {
			t.Fatalf("%s: seed triples differ", v.name)
		}
		if !reflect.DeepEqual(statsOf(res), statsOf(base)) {
			t.Fatalf("%s: iteration stats differ:\n%+v\nwant\n%+v", v.name, statsOf(res), statsOf(base))
		}
		for i := range base.Iterations {
			if !reflect.DeepEqual(res.Iterations[i].Triples, base.Iterations[i].Triples) {
				t.Fatalf("%s: iteration %d triples differ", v.name, i+1)
			}
		}
		if rep.Fingerprint != baseRep.Fingerprint {
			t.Fatalf("%s: report fingerprint %q differs from %q — corpus layout leaked into the config identity",
				v.name, rep.Fingerprint, baseRep.Fingerprint)
		}
		b, err := res.Bundle()
		if err != nil {
			t.Fatalf("%s: bundle: %v", v.name, err)
		}
		if b.Fingerprint() != baseBundle.Fingerprint() {
			t.Fatalf("%s: bundle fingerprint %q differs from %q — the trained model depends on corpus layout",
				v.name, b.Fingerprint(), baseBundle.Fingerprint())
		}
	}
}

// TestSpillLeavesNothingBehind: a spilled run removes its private entries
// on every exit path: a completed run, a prep stage that panics after it has
// spilled an entry, and a contained panic in an iteration's tag stage.
func TestSpillLeavesNothingBehind(t *testing.T) {
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 60})
	spill := t.TempDir()
	cfg := fastConfig()
	cfg.Iterations = 1
	cfg.Spill = spill
	src := corpus.NewSliceSource(corpusFor(gc).Documents)
	if _, err := New(cfg).RunSource(context.Background(),
		Input{Source: src, Queries: gc.Queries, Lang: gc.Lang}); err != nil {
		t.Fatal(err)
	}
	assertEmptyDir(t, spill)

	// 90 pages in shards of 13: 7 shards, so prep call 20 falls in shard 1,
	// after shard 0's entry is written.
	gc = gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 90})
	dir := shardGenCorpus(t, gc, 13)
	for _, stage := range []string{faultinject.StagePrepWorker, faultinject.StageTag} {
		t.Run(stage, func(t *testing.T) {
			spill := t.TempDir()
			cfg := fastConfig()
			cfg.Iterations = 1
			cfg.Spill = spill
			call := 1
			if stage == faultinject.StagePrepWorker {
				call = 20
			}
			cfg.FaultInjector = faultinject.New(
				faultinject.Fault{Stage: stage, Call: call, Kind: faultinject.Panic})
			rec := obs.New(obs.Options{})
			cfg.Obs = rec
			src := openSource(t, dir)
			defer src.Close()
			res, err := New(cfg).RunSource(context.Background(),
				Input{Source: src, Queries: gc.Queries, Lang: gc.Lang})
			if err == nil {
				err = res.StopReason.Err
			}
			if !errors.Is(err, ErrStagePanic) {
				t.Fatalf("got %v, want the injected panic", err)
			}
			if n := rec.Snapshot().Counters["prep.spill_shards"]; n < 1 {
				t.Fatalf("prep.spill_shards = %d, want an entry written before the panic", n)
			}
			assertEmptyDir(t, spill)
		})
	}
}

func assertEmptyDir(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill directory not cleaned up: %d entries remain", len(entries))
	}
}

// TestSpillWithShardCache: a spilled, checkpointed run — cold, warm with
// every shard reused, and incremental after an append — gives the same final
// triples and bundle as the same sequence without spill, and removes its
// private entries each time.
func TestSpillWithShardCache(t *testing.T) {
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 60})
	type step struct {
		name        string
		incremental bool
		reused      int
		recomputed  int
	}
	steps := []step{{"cold", false, 0, 3}, {"warm", false, 3, 0}, {"incremental", true, 3, 1}}

	// sequence runs the three steps over a fresh 3-shard corpus, appending
	// a shard before the incremental one.
	sequence := func(spill bool) []*Result {
		dir := shardGenCorpus(t, gc, 20)
		ckpt := t.TempDir()
		var out []*Result
		for _, s := range steps {
			if s.incremental {
				appendGenPages(t, dir, 77, 20)
			}
			cfg := fastConfig()
			cfg.Checkpoint = ckpt
			cfg.Incremental = s.incremental
			if spill {
				cfg.Spill = t.TempDir()
			}
			src := openSource(t, dir)
			res, err := New(cfg).RunSource(context.Background(),
				Input{Source: src, Queries: gc.Queries, Lang: gc.Lang})
			src.Close()
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if res.ShardsReused != s.reused || res.ShardsRecomputed != s.recomputed {
				t.Fatalf("%s: reused/recomputed = %d/%d, want %d/%d",
					s.name, res.ShardsReused, res.ShardsRecomputed, s.reused, s.recomputed)
			}
			if spill {
				assertEmptyDir(t, cfg.Spill)
			}
			out = append(out, res)
		}
		return out
	}
	want, got := sequence(false), sequence(true)
	for i, s := range steps {
		if !reflect.DeepEqual(got[i].FinalTriples(), want[i].FinalTriples()) {
			t.Fatalf("%s: spilled final triples differ from the unspilled run", s.name)
		}
		bw, err := want[i].Bundle()
		if err != nil {
			t.Fatal(err)
		}
		bg, err := got[i].Bundle()
		if err != nil {
			t.Fatal(err)
		}
		if bg.Fingerprint() != bw.Fingerprint() {
			t.Fatalf("%s: spilled bundle fingerprint %q, unspilled %q", s.name, bg.Fingerprint(), bw.Fingerprint())
		}
	}
}

// TestWalkUnitsWithoutShards: over a source without shards, the walk cuts a
// unit every corpus.DefaultShardSize documents. It delivers every document
// in order, no chunk straddles a unit boundary, and only the full units end.
func TestWalkUnitsWithoutShards(t *testing.T) {
	const n = 1100
	docs := make([]seed.Document, n)
	for i := range docs {
		docs[i] = seed.Document{ID: fmt.Sprint(i)}
	}
	st := &runState{in: Input{Source: corpus.NewSliceSource(docs)}}
	st.openCorpus()
	seen := 0
	var ends []int
	got, err := st.walk(func(chunk []seed.Document) error {
		for _, d := range chunk {
			if d.ID != fmt.Sprint(seen) {
				t.Fatalf("document %d delivered as %q", seen, d.ID)
			}
			seen++
		}
		if start := seen - len(chunk); start/corpus.DefaultShardSize != (seen-1)/corpus.DefaultShardSize {
			t.Fatalf("chunk [%d,%d) straddles a unit boundary", start, seen)
		}
		return nil
	}, func(i int) error {
		if seen != (i+1)*corpus.DefaultShardSize {
			t.Fatalf("unit %d ended after %d documents", i, seen)
		}
		ends = append(ends, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n || seen != n {
		t.Fatalf("walk read %d and delivered %d documents, want %d", got, seen, n)
	}
	if !reflect.DeepEqual(ends, []int{0, 1}) {
		t.Fatalf("units ended: %v, want [0 1]", ends)
	}
}

// TestRunSourceDegenerateInputs: empty and broken corpora surface typed
// errors from the PR-1 taxonomy, never a panic.
func TestRunSourceDegenerateInputs(t *testing.T) {
	t.Run("nil source", func(t *testing.T) {
		_, err := New(fastConfig()).RunSource(context.Background(), Input{Lang: "ja"})
		if !errors.Is(err, ErrNoDocuments) {
			t.Fatalf("got %v, want ErrNoDocuments", err)
		}
	})
	t.Run("zero documents", func(t *testing.T) {
		src := corpus.NewSliceSource(nil)
		_, err := New(fastConfig()).RunSource(context.Background(),
			Input{Source: src, Queries: []string{"q"}, Lang: "ja"})
		if !errors.Is(err, ErrNoDocuments) {
			t.Fatalf("got %v, want ErrNoDocuments", err)
		}
	})
	t.Run("corrupt shard", func(t *testing.T) {
		gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 30})
		dir := shardGenCorpus(t, gc, 10)
		// Damage the middle shard without breaking its JSON: only the
		// fingerprint check can catch it.
		shard := filepath.Join(dir, "shards", "shard-0001.jsonl")
		raw, err := os.ReadFile(shard)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] = 'X'
		if err := os.WriteFile(shard, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := corpus.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		src := r.Source()
		defer src.Close()
		_, err = New(fastConfig()).RunSource(context.Background(),
			Input{Source: src, Queries: gc.Queries, Lang: gc.Lang})
		if err == nil || !(errors.Is(err, corpus.ErrFingerprint) || errors.Is(err, corpus.ErrCorrupt)) {
			t.Fatalf("got %v, want a corpus corruption error", err)
		}
	})
}

// TestResumeRejectsDifferentCorpus: a checkpoint written from one corpus
// refuses to resume against another — different documents or even the same
// documents under a different shard geometry (the shard cursor would be
// meaningless).
func TestResumeRejectsDifferentCorpus(t *testing.T) {
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 60})
	dirA := shardGenCorpus(t, gc, 20)
	ckpt := t.TempDir()

	runOn := func(dir string, resume bool) (*Result, error) {
		cfg := fastConfig()
		cfg.Iterations = 1
		cfg.Checkpoint = ckpt
		cfg.Resume = resume
		r, err := corpus.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		src := r.Source()
		defer src.Close()
		return New(cfg).RunSource(context.Background(),
			Input{Source: src, Queries: gc.Queries, Lang: gc.Lang})
	}

	if _, err := runOn(dirA, false); err != nil {
		t.Fatal(err)
	}

	t.Run("different documents", func(t *testing.T) {
		other := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 10, Items: 60})
		dirB := shardGenCorpus(t, other, 20)
		res, err := runOn(dirB, true)
		if !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("got %v, want ErrCheckpointMismatch", err)
		}
		if res == nil || !errors.Is(res.StopReason.Err, ErrCheckpointMismatch) {
			t.Fatalf("StopReason missing: %+v", res)
		}
	})
	t.Run("different shard geometry", func(t *testing.T) {
		dirC := shardGenCorpus(t, gc, 7)
		if _, err := runOn(dirC, true); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("got %v, want ErrCheckpointMismatch", err)
		}
	})
	// Same corpus, same geometry: the no-op resume is accepted.
	t.Run("same corpus resumes", func(t *testing.T) {
		res, err := runOn(dirA, true)
		if err != nil {
			t.Fatal(err)
		}
		if !res.StopReason.Completed() {
			t.Fatalf("no-op resume: %s", res.Describe())
		}
	})
}

// TestCorpusWalkFinishesEveryShard: with and without a checkpoint, and with
// a checkpoint whose shard cache covers a prefix of the corpus, the bootstrap
// reads each shard it does not reuse to its end in both corpus passes. So
// corpus.bytes_read is exactly two passes over those shards, no corpus.shard
// span is left open, and a final shard tampered after write (valid JSON,
// same page count) fails the run with ErrFingerprint in every mode, without
// its work ever reaching the shard cache.
func TestCorpusWalkFinishesEveryShard(t *testing.T) {
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 60})
	type mode struct {
		name       string
		checkpoint bool
		// grow checkpoints the 3-shard corpus, then appends a fourth shard,
		// so the measured run reuses a 3-shard cached prefix.
		grow bool
	}
	modes := []mode{
		{"no checkpoint", false, false},
		{"fresh checkpoint", true, false},
		{"reused prefix", true, true},
	}

	run := func(dir, ckpt string) (*Result, *obs.Report, error) {
		cfg := fastConfig()
		cfg.Iterations = 1
		cfg.Checkpoint = ckpt
		rec := obs.New(obs.Options{})
		cfg.Obs = rec
		src := openSource(t, dir)
		defer src.Close()
		res, err := New(cfg).RunSource(context.Background(),
			Input{Source: src, Queries: gc.Queries, Lang: gc.Lang})
		return res, rec.Snapshot(), err
	}
	// setup writes the corpus for one mode and returns its directory, the
	// checkpoint directory ("" without one) and the number of leading shards
	// the measured run will take from the cache.
	setup := func(t *testing.T, m mode) (dir, ckpt string, reused int) {
		dir = shardGenCorpus(t, gc, 20) // 3 shards
		if !m.checkpoint {
			return dir, "", 0
		}
		ckpt = t.TempDir()
		if !m.grow {
			return dir, ckpt, 0
		}
		if _, _, err := run(dir, ckpt); err != nil {
			t.Fatal(err)
		}
		appendGenPages(t, dir, 77, 20)
		return dir, ckpt, 3
	}

	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			dir, ckpt, reused := setup(t, m)
			man, err := corpus.ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			res, rep, err := run(dir, ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if res.ShardsReused != reused {
				t.Fatalf("reused %d shards, want %d", res.ShardsReused, reused)
			}
			var want int64
			for _, s := range man.Shards[reused:] {
				want += 2 * s.Bytes
			}
			if got := rep.Counters["corpus.bytes_read"]; got != want {
				t.Fatalf("corpus.bytes_read = %d, want %d (two passes over shards %d..%d)",
					got, want, reused, len(man.Shards)-1)
			}
			if open := rep.OpenSpans(); len(open) != 0 {
				t.Fatalf("open spans after the run: %v", open)
			}
		})
		t.Run(m.name+"/tampered final shard", func(t *testing.T) {
			dir, ckpt, _ := setup(t, m)
			man, err := corpus.ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			last := len(man.Shards) - 1
			tamperFirstPage(t, filepath.Join(dir, man.Shards[last].File))
			_, rep, err := run(dir, ckpt)
			if !errors.Is(err, corpus.ErrFingerprint) {
				t.Fatalf("got %v, want ErrFingerprint", err)
			}
			if open := rep.OpenSpans(); len(open) != 0 {
				t.Fatalf("open spans after the failed run: %v", open)
			}
			if ckpt != "" {
				entry := filepath.Join(ckpt, shardCacheDir, fmt.Sprintf("shard-%04d.gob", last))
				if _, err := os.Stat(entry); !os.IsNotExist(err) {
					t.Fatalf("tampered shard %d reached the shard cache (stat: %v)", last, err)
				}
			}
		})
	}
}

// TestInterruptedWalkClosesShardSpan: a corpus pass that fails mid-shard
// still leaves no corpus.shard span open once RunSource returns.
func TestInterruptedWalkClosesShardSpan(t *testing.T) {
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 150})
	dir := shardGenCorpus(t, gc, 100) // the first prep chunk ends inside shard 0
	cfg := fastConfig()
	cfg.FaultInjector = faultinject.New(
		faultinject.Fault{Stage: faultinject.StagePrepWorker, Call: 1, Kind: faultinject.Error})
	rec := obs.New(obs.Options{})
	cfg.Obs = rec
	src := openSource(t, dir)
	defer src.Close()
	_, err := New(cfg).RunSource(context.Background(),
		Input{Source: src, Queries: gc.Queries, Lang: gc.Lang})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("got %v, want the injected prep fault", err)
	}
	if open := rec.Snapshot().OpenSpans(); len(open) != 0 {
		t.Fatalf("open spans after the failed run: %v", open)
	}
}

// tamperFirstPage rewrites the first page of a shard file in place with a
// changed HTML body: the shard stays valid JSON with the same page count, so
// only its fingerprint can tell.
func tamperFirstPage(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfterN(raw, []byte("\n"), 2)
	var page map[string]string
	if err := json.Unmarshal(lines[0], &page); err != nil {
		t.Fatal(err)
	}
	page["html"] += "<!-- tampered -->"
	first, err := json.Marshal(page)
	if err != nil {
		t.Fatal(err)
	}
	out := append(append(first, '\n'), lines[1]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}
