package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/gen"
)

// appendGenPages grows an on-disk sharded corpus with freshly generated
// pages, the way `paegen -append` does: product IDs offset past the committed
// page count, a different generator seed so the delta holds new content, and
// the same manifest commit point.
func appendGenPages(t *testing.T, dir string, seedV uint64, items int) {
	t.Helper()
	w, err := corpus.OpenAppend(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Manifest()
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: seedV, Items: items, IDOffset: m.Pages})
	for _, p := range gc.Pages {
		if err := w.WritePage(p); err != nil {
			t.Fatal(err)
		}
	}
	w.MergeQueries(gc.Queries)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func openSource(t *testing.T, dir string) corpus.Source {
	t.Helper()
	r, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return r.Source()
}

// coldShardCheckpoint is fastConfig() with checkpointing over the 60-page
// corpus in 3 shards of 20: the cold run the shard-cache tests start from.
func coldShardCheckpoint(t *testing.T) (*Result, string) {
	t.Helper()
	return checkpointedRun(t, "cold-3-shards", func(ckpt string) (*Result, error) {
		gc := generated(t, gen.VacuumCleaner(), 9, 60)
		src := openSource(t, shardGenCorpus(t, gc, 20))
		defer src.Close()
		cfg := fastConfig()
		cfg.Checkpoint = ckpt
		return New(cfg).RunSource(context.Background(),
			Input{Source: src, Queries: gc.Queries, Lang: gc.Lang})
	})
}

// TestIncrementalGrownCorpus is the delta re-bootstrap acceptance test: after
// a checkpointed run and a corpus append, a plain resume fails typed with
// ErrCorpusGrown (not the generic mismatch), and an incremental run
// warm-starts — reusing every checkpointed shard's seed/prep work, restarting
// iteration numbering at 1, and completing over the full grown corpus.
func TestIncrementalGrownCorpus(t *testing.T) {
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 60})
	dir := shardGenCorpus(t, gc, 20) // 3 shards
	cold, ckpt := coldShardCheckpoint(t)

	run := func(resume, incremental bool) (*Result, error) {
		cfg := fastConfig()
		cfg.Checkpoint = ckpt
		cfg.Resume = resume
		cfg.Incremental = incremental
		src := openSource(t, dir)
		defer src.Close()
		return New(cfg).RunSource(context.Background(),
			Input{Source: src, Queries: gc.Queries, Lang: gc.Lang})
	}

	if cold.ShardsReused != 0 || cold.ShardsRecomputed != 3 {
		t.Fatalf("cold run reused/recomputed = %d/%d, want 0/3", cold.ShardsReused, cold.ShardsRecomputed)
	}

	appendGenPages(t, dir, 77, 20) // +1 shard, generation 1

	warm, err := run(false, true)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStart {
		t.Fatal("incremental run over grown corpus did not warm-start")
	}
	if warm.ShardsReused < 1 {
		t.Fatalf("warm start reused %d shards, want >= 1", warm.ShardsReused)
	}
	if warm.ShardsReused != 3 || warm.ShardsRecomputed != 1 {
		t.Fatalf("warm start reused/recomputed = %d/%d, want 3/1 (the checkpointed prefix plus the appended shard)",
			warm.ShardsReused, warm.ShardsRecomputed)
	}
	if !warm.StopReason.Completed() {
		t.Fatalf("warm start stopped early: %s", warm.Describe())
	}
	if len(warm.Iterations) == 0 || warm.Iterations[0].Iteration != 1 {
		t.Fatalf("warm start iterations = %+v, want numbering restarted at 1", statsOf(warm))
	}
	// The warm training set starts from the checkpoint's final triples merged
	// with the grown corpus's seed — it can never be smaller than the cold
	// run's seed-only start.
	if warm.Iterations[0].TrainingSequences < cold.Iterations[0].TrainingSequences {
		t.Fatalf("warm start trained on %d sequences, cold start on %d — checkpointed triples were dropped",
			warm.Iterations[0].TrainingSequences, cold.Iterations[0].TrainingSequences)
	}

	// The warm run checkpointed the grown corpus: a plain resume now finds an
	// exact stamp match and is a no-op continuation.
	again, err := run(true, false)
	if err != nil {
		t.Fatalf("resume after warm start: %v", err)
	}
	if again.WarmStart {
		t.Fatal("exact-match resume must not warm-start")
	}
	if !reflect.DeepEqual(again.FinalTriples(), warm.FinalTriples()) {
		t.Fatal("resume after warm start changed the final triples")
	}

	// Grow once more: a plain resume over the again-grown corpus is refused
	// with the grown-corpus sentinel — distinguishable from a genuinely
	// incompatible checkpoint — while an incremental resume warm-starts.
	appendGenPages(t, dir, 78, 20) // +1 shard, generation 2
	res, err := run(true, false)
	if !errors.Is(err, ErrCorpusGrown) {
		t.Fatalf("resume over grown corpus = %v, want ErrCorpusGrown", err)
	}
	if errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("grown corpus must not double as ErrCheckpointMismatch: %v", err)
	}
	if res == nil || !errors.Is(res.StopReason.Err, ErrCorpusGrown) {
		t.Fatalf("StopReason missing the grown-corpus cause: %+v", res)
	}
	warm2, err := run(true, true)
	if err != nil {
		t.Fatalf("incremental run over twice-grown corpus: %v", err)
	}
	if !warm2.WarmStart || warm2.ShardsReused < 4 {
		t.Fatalf("second warm start: WarmStart=%t reused=%d, want warm start reusing >= 4 shards",
			warm2.WarmStart, warm2.ShardsReused)
	}
}

// TestShardCacheByteIdentity: reusing cached per-shard seed/prep work never
// changes any output. A second from-scratch checkpointed run over the same
// corpus replays every shard from cache and must match the cold run byte for
// byte — triples, stats, and bundle fingerprint.
func TestShardCacheByteIdentity(t *testing.T) {
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 60})
	dir := shardGenCorpus(t, gc, 20)
	cold, ckpt := coldShardCheckpoint(t)

	run := func() *Result {
		cfg := fastConfig()
		cfg.Checkpoint = ckpt
		src := openSource(t, dir)
		defer src.Close()
		res, err := New(cfg).RunSource(context.Background(),
			Input{Source: src, Queries: gc.Queries, Lang: gc.Lang})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	warmCache := run()
	if warmCache.ShardsReused != 3 || warmCache.ShardsRecomputed != 0 {
		t.Fatalf("second run reused/recomputed = %d/%d, want 3/0",
			warmCache.ShardsReused, warmCache.ShardsRecomputed)
	}
	if !reflect.DeepEqual(cold.FinalTriples(), warmCache.FinalTriples()) {
		t.Fatal("cache reuse changed the final triples")
	}
	if !reflect.DeepEqual(cold.SeedTriples, warmCache.SeedTriples) {
		t.Fatal("cache reuse changed the seed triples")
	}
	if !reflect.DeepEqual(statsOf(cold), statsOf(warmCache)) {
		t.Fatalf("cache reuse changed iteration stats:\n%+v\nwant\n%+v", statsOf(warmCache), statsOf(cold))
	}
	bc, err := cold.Bundle()
	if err != nil {
		t.Fatal(err)
	}
	bw, err := warmCache.Bundle()
	if err != nil {
		t.Fatal(err)
	}
	if bc.Fingerprint() != bw.Fingerprint() {
		t.Fatal("cache reuse changed the bundle fingerprint")
	}

	// The iteration count is deliberately absent from the cache key: seed
	// discovery and prep are corpus passes the schedule never shapes, so a
	// short run reuses a longer bootstrap's shard work.
	short := fastConfig()
	short.Iterations = 1
	short.Checkpoint = ckpt
	src := openSource(t, dir)
	defer src.Close()
	quick, err := New(short).RunSource(context.Background(),
		Input{Source: src, Queries: gc.Queries, Lang: gc.Lang})
	if err != nil {
		t.Fatal(err)
	}
	if quick.ShardsReused != 3 {
		t.Fatalf("cross-schedule run reused %d shards, want 3 (the key ignores the iteration count)", quick.ShardsReused)
	}

	// Any output-shaping knob, though, binds the key: a different
	// fingerprint must not reuse the entries.
	cfg := fastConfig()
	cfg.MinConfidence = 0.25
	cfg.Checkpoint = ckpt
	src2 := openSource(t, dir)
	defer src2.Close()
	other, err := New(cfg).RunSource(context.Background(),
		Input{Source: src2, Queries: gc.Queries, Lang: gc.Lang})
	if err != nil {
		t.Fatal(err)
	}
	if other.ShardsReused != 0 {
		t.Fatalf("run with a different fingerprint reused %d shards, want 0", other.ShardsReused)
	}
}

// TestIncrementalCrossSchedule: an incremental warm start may run a shorter
// iteration schedule than the bootstrap it refreshes — the checkpoint's
// final triples are consumed as labels, not iteration state — but the same
// relaxation must never leak into same-corpus resumes, where replaying
// checkpointed iterations under a different schedule would break the
// byte-identical-resume contract.
func TestIncrementalCrossSchedule(t *testing.T) {
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 60})
	dir := shardGenCorpus(t, gc, 20) // 3 shards
	_, ckpt := coldShardCheckpoint(t)

	run := func(iters int, incremental bool) (*Result, error) {
		cfg := fastConfig()
		cfg.Iterations = iters
		cfg.Checkpoint = ckpt
		cfg.Incremental = incremental
		src := openSource(t, dir)
		defer src.Close()
		return New(cfg).RunSource(context.Background(),
			Input{Source: src, Queries: gc.Queries, Lang: gc.Lang})
	}

	// Same corpus, shorter schedule: this would be a resume, and resumes
	// must match the configuration exactly even in incremental mode.
	_, err := run(1, true)
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("same-corpus cross-schedule incremental = %v, want ErrCheckpointMismatch", err)
	}
	if !strings.Contains(err.Error(), "schedule") {
		t.Fatalf("mismatch error %q does not name the iteration schedule", err)
	}

	// Grown corpus, shorter schedule: the case the relaxation exists for — a
	// 1-iteration warm refresh of a 2-iteration bootstrap, reusing every
	// checkpointed shard's seed/prep work.
	appendGenPages(t, dir, 77, 20) // +1 shard
	quick, err := run(1, true)
	if err != nil {
		t.Fatalf("cross-schedule warm start: %v", err)
	}
	if !quick.WarmStart || quick.ShardsReused != 3 || quick.ShardsRecomputed != 1 {
		t.Fatalf("cross-schedule warm start: WarmStart=%t reused/recomputed=%d/%d, want true 3/1",
			quick.WarmStart, quick.ShardsReused, quick.ShardsRecomputed)
	}
	if len(quick.Iterations) != 1 || quick.Iterations[0].Iteration != 1 {
		t.Fatalf("cross-schedule warm start iterations = %+v, want exactly one, numbered 1", statsOf(quick))
	}
	if !quick.StopReason.Completed() {
		t.Fatalf("cross-schedule warm start stopped early: %s", quick.Describe())
	}
}
