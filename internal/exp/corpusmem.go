// The corpus-memory experiment: the bounded-memory claim of the streaming
// corpus layer, measured. The bootstrap runs over the same category at 1×
// and 2× corpus size, once through the in-memory API and once streamed from
// sharded disk with the prepared-corpus spill enabled, while a sampler
// tracks the peak live heap. Streaming keeps the peak roughly flat as the
// corpus doubles; the in-memory path grows with it.

package exp

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/seed"
)

// peakSampler polls the live heap while a run executes and keeps the
// maximum. Sampling (not instrumentation) keeps the measured code path
// byte-identical to production.
type peakSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
	base uint64
	gogc int
}

func startPeakSampler() *peakSampler {
	// A tight GC target keeps HeapAlloc close to the live set; under the
	// default GOGC the sampled peak would mostly measure uncollected garbage
	// from allocation-heavy phases (CRF training), not residency.
	gogc := debug.SetGCPercent(10)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &peakSampler{stop: make(chan struct{}), done: make(chan struct{}), base: ms.HeapAlloc, gogc: gogc}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak {
					s.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return s
}

// delta ends sampling and returns the peak live heap above the pre-run
// baseline.
func (s *peakSampler) delta() uint64 {
	close(s.stop)
	<-s.done
	debug.SetGCPercent(s.gogc)
	if s.peak < s.base {
		return 0
	}
	return s.peak - s.base
}

// CorpusMemory measures peak heap of a one-iteration cleaned CRF bootstrap
// at two corpus scales for each of the two input paths. Honesty note: the
// streamed path still holds O(corpus) residuals that the corpus layer does
// not remove — the labeled training dataset and the id-encoded word2vec
// corpus of the semantic cleaner — so its peak is not O(shard); the claim
// under test is that the page bodies and prepared sentences no longer
// dominate, which is what the gap between the two rows shows.
func CorpusMemory(s Settings) string {
	s = s.withDefaults()
	cat := mustCat("Vacuum Cleaner")
	cfg, _ := crfConfig(1, true)
	cfg.Iterations = 1

	t := &table{
		title: fmt.Sprintf("corpus memory — peak live heap above baseline (%s, 1 iteration)", cat.Name),
		head:  []string{"Input path", "Pages", "Peak MiB"},
	}

	for _, scale := range []int{1, 2} {
		items := s.Items * scale
		gc := gen.Generate(cat, gen.Options{Seed: s.Seed, Items: items})
		queries, lang, pages := gc.Queries, gc.Lang, len(gc.Pages)

		// Streamed: pages on disk in shards, prepared sentences spilled one
		// entry per shard. The generated corpus is released before
		// measuring, so the sampler sees what a production ingest would:
		// disk in, spill out. Two shard geometries show the peak tracking
		// shard size, not corpus size.
		shardSizes := []int{corpus.DefaultShardSize, 32}
		dirs := make([]string, len(shardSizes))
		for i, size := range shardSizes {
			dirs[i] = writeCorpus(gc, size)
		}
		gc = nil

		for i, dir := range dirs {
			streamed := func() uint64 {
				r, err := corpus.Open(dir)
				if err != nil {
					panic(fmt.Sprintf("exp: corpusmem: %v", err))
				}
				scfg := cfg
				scfg.Parallelism = s.Workers
				scfg.Spill = dir
				src := r.Source()
				defer src.Close()
				sampler := startPeakSampler()
				if _, err := core.New(scfg).RunSource(context.Background(),
					core.Input{Source: src, Queries: queries, Lang: lang}); err != nil {
					panic(fmt.Sprintf("exp: corpusmem: %v", err))
				}
				return sampler.delta()
			}()
			t.addRow(fmt.Sprintf("streamed, %d-page shards %dx", shardSizes[i], scale),
				fmt.Sprintf("%d", pages), mib(streamed))
		}

		// In-memory: the classic pae.Run path over a document slice. The
		// sampler starts before the load, because holding every page body is
		// precisely this path's cost.
		inmem := func() uint64 {
			sampler := startPeakSampler()
			r, err := corpus.Open(dirs[0])
			if err != nil {
				panic(fmt.Sprintf("exp: corpusmem: %v", err))
			}
			src := r.Source()
			docs := make([]seed.Document, 0, pages)
			_, err = corpus.ForEachChunk(src, 64, func(chunk []seed.Document, _ int) error {
				docs = append(docs, append([]seed.Document(nil), chunk...)...)
				return nil
			})
			src.Close()
			if err != nil {
				panic(fmt.Sprintf("exp: corpusmem: %v", err))
			}
			mcfg := cfg
			mcfg.Parallelism = s.Workers
			if _, err := core.New(mcfg).RunContext(context.Background(),
				core.Corpus{Documents: docs, Queries: queries, Lang: lang}); err != nil {
				panic(fmt.Sprintf("exp: corpusmem: %v", err))
			}
			return sampler.delta()
		}()
		t.addRow(fmt.Sprintf("in-memory %dx", scale), fmt.Sprintf("%d", pages), mib(inmem))

		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}
	return t.String()
}

// writeCorpus writes gc to a fresh temporary directory in shards of
// shardSize pages and returns the directory.
func writeCorpus(gc *gen.Corpus, shardSize int) string {
	dir, err := os.MkdirTemp("", "pae-corpusmem-*")
	if err != nil {
		panic(fmt.Sprintf("exp: corpusmem: %v", err))
	}
	w, err := corpus.NewWriter(dir, corpus.WriterOptions{Name: gc.Name, Lang: gc.Lang, ShardSize: shardSize})
	if err != nil {
		panic(fmt.Sprintf("exp: corpusmem: %v", err))
	}
	for _, p := range gc.Pages {
		if err := w.WritePage(p); err != nil {
			panic(fmt.Sprintf("exp: corpusmem: %v", err))
		}
	}
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("exp: corpusmem: %v", err))
	}
	return dir
}

func mib(b uint64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }
