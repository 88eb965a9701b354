package pae_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/crf"
	"repro/internal/gen"
	"repro/internal/obs"
)

// Observability-overhead benchmarks: the same bootstrap with the recorder
// disabled (nil, the production default) and enabled. Compare with
//
//	go test -bench='BenchmarkBootstrap(Noop|Live)Recorder' -count=5
//
// The nil-recorder run must stay within ~2% of the pre-instrumentation
// baseline: every hook is one nil check.

func benchBootstrap(b *testing.B, rec *obs.Recorder) {
	b.Helper()
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 90})
	corpus := core.Corpus{Documents: gc.Pages, Queries: gc.Queries, Lang: gc.Lang}
	cfg := core.Config{Iterations: 2, CRF: crf.Config{MaxIter: 30}, Obs: rec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.New(cfg).Run(corpus)
		if err != nil {
			b.Fatal(err)
		}
		if !res.StopReason.Completed() {
			b.Fatalf("run stopped early: %s", res.Describe())
		}
	}
}

func BenchmarkBootstrapNoopRecorder(b *testing.B) { benchBootstrap(b, nil) }

func BenchmarkBootstrapLiveRecorder(b *testing.B) {
	benchBootstrap(b, obs.New(obs.Options{}))
}
