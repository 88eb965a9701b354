package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/crf"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/seed"
	"repro/internal/tagger"
	"repro/internal/text"
)

// iterStats flattens the per-iteration statistics the determinism contract
// covers: every counter the report and checkpoint serialise.
type iterStats struct {
	Iteration         int
	Triples           int
	TaggedCandidates  int
	VetoRemoved       int
	SemanticRemoved   int
	TrainingSequences int
}

func statsOf(res *Result) []iterStats {
	out := make([]iterStats, len(res.Iterations))
	for i, ir := range res.Iterations {
		out[i] = iterStats{
			Iteration:         ir.Iteration,
			Triples:           len(ir.Triples),
			TaggedCandidates:  ir.TaggedCandidates,
			VetoRemoved:       ir.Veto.Removed(),
			SemanticRemoved:   ir.SemanticRemoved,
			TrainingSequences: ir.TrainingSequences,
		}
	}
	return out
}

// reportedRun runs fastConfig() at the given worker count over the 90-page
// Vacuum Cleaner corpus through Run, with a live recorder.
func reportedRun(t *testing.T, workers int) (*Result, *obs.Report, error) {
	t.Helper()
	cfg := fastConfig()
	cfg.Parallelism = workers
	rec := obs.New(obs.Options{})
	cfg.Obs = rec
	res, err := New(cfg).Run(corpusFor(generated(t, gen.VacuumCleaner(), 9, 90)))
	return res, rec.Snapshot(), err
}

// serialReference is reportedRun at Workers=1, the reference that both the
// worker-count and the corpus-layout invariance tests compare against,
// computed once per test binary; callers must not modify it.
func serialReference(t *testing.T) (*Result, *obs.Report) {
	t.Helper()
	type reference struct {
		res *Result
		rep *obs.Report
	}
	ref := memo(t, "serial-reference", func() (reference, error) {
		res, rep, err := reportedRun(t, 1)
		return reference{res, rep}, err
	})
	return ref.res, ref.rep
}

// TestParallelismByteIdentical is the tentpole acceptance test: the same run
// at Workers 1, 2, and 8 produces byte-identical final triples (order
// included), identical per-iteration statistics, and the same run-report
// configuration fingerprint.
func TestParallelismByteIdentical(t *testing.T) {
	base, baseRep := serialReference(t)
	for _, workers := range []int{2, 8} {
		res, rep, err := reportedRun(t, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.FinalTriples(), base.FinalTriples()) {
			t.Fatalf("workers=%d: final triples differ from serial run", workers)
		}
		if !reflect.DeepEqual(res.SeedTriples, base.SeedTriples) {
			t.Fatalf("workers=%d: seed triples differ from serial run", workers)
		}
		if !reflect.DeepEqual(statsOf(res), statsOf(base)) {
			t.Fatalf("workers=%d: iteration stats differ:\n%+v\nwant\n%+v",
				workers, statsOf(res), statsOf(base))
		}
		for i := range base.Iterations {
			if !reflect.DeepEqual(res.Iterations[i].Triples, base.Iterations[i].Triples) {
				t.Fatalf("workers=%d: iteration %d triples differ", workers, i+1)
			}
		}
		if rep.Fingerprint != baseRep.Fingerprint {
			t.Fatalf("workers=%d: report fingerprint %q differs from %q — parallelism leaked into the config identity",
				workers, rep.Fingerprint, baseRep.Fingerprint)
		}
	}
}

// TestResumeAcrossWorkerCounts kills a Workers=8 run mid-bootstrap and
// resumes it at Workers=2: the checkpoint fingerprint must accept the resume
// (parallelism is not part of the config identity) and the final triples
// must match an uninterrupted Workers=1 run exactly.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	c := ckptCorpus(t)
	ref := ckptConfig()
	ref.Parallelism = 1
	refRes, err := New(ref).Run(c)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	killed := ckptConfig()
	killed.Parallelism = 8
	killed.Checkpoint = dir
	killed.FaultInjector = faultinject.New(
		faultinject.Fault{Stage: faultinject.StageTrain, Call: 3, Kind: faultinject.Panic})
	kres, err := New(killed).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(kres.Iterations) != 2 || kres.StopReason.Completed() {
		t.Fatalf("interrupted run: %s", kres.Describe())
	}

	resumed := ckptConfig()
	resumed.Parallelism = 2
	resumed.Checkpoint = dir
	resumed.Resume = true
	rres, err := New(resumed).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !rres.StopReason.Completed() || len(rres.Iterations) != 3 {
		t.Fatalf("resumed run: %s", rres.Describe())
	}
	if !reflect.DeepEqual(rres.FinalTriples(), refRes.FinalTriples()) {
		t.Fatal("resumed run at a different worker count diverged from the serial reference")
	}
}

// TestTagWorkerPanicContained is the acceptance fault case: a panic inside
// one tagging worker goroutine is re-panicked in the stage's goroutine,
// contained by the stage guard, and surfaces as the usual typed StopReason —
// never as a process crash.
func TestTagWorkerPanicContained(t *testing.T) {
	cfg := fastConfig()
	cfg.Parallelism = 4
	cfg.FaultInjector = faultinject.New(
		faultinject.Fault{Stage: faultinject.StageTagWorker, Call: 1, Kind: faultinject.Panic})
	res, err := New(cfg).Run(faultCorpus(t))
	if err != nil {
		t.Fatalf("worker panic escaped as run error: %v", err)
	}
	sr := res.StopReason
	if sr.Stage != faultinject.StageTag || sr.Iteration != 1 {
		t.Fatalf("StopReason = %+v, want tag stage, iteration 1", sr)
	}
	if !errors.Is(sr.Err, ErrStagePanic) {
		t.Fatalf("StopReason.Err = %v, want ErrStagePanic", sr.Err)
	}
	var pe *PanicError
	if !errors.As(sr.Err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("StopReason.Err = %#v, want *PanicError with the worker's stack", sr.Err)
	}
	// The seed survives the first-iteration failure.
	sameTriples(t, res.SeedTriples, res.FinalTriples())
}

// TestPrepWorkerFaults covers the corpus-prep pool: an injected per-document
// error aborts the run with the injected cause, and a per-document panic is
// contained into the prep stage's typed error.
func TestPrepWorkerFaults(t *testing.T) {
	cfg := fastConfig()
	cfg.Parallelism = 4
	cfg.FaultInjector = faultinject.New(
		faultinject.Fault{Stage: faultinject.StagePrepWorker, Call: 1, Kind: faultinject.Error})
	res, err := New(cfg).Run(faultCorpus(t))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if res.StopReason.Stage != faultinject.StagePrep {
		t.Fatalf("StopReason = %+v, want prep stage", res.StopReason)
	}

	cfg = fastConfig()
	cfg.Parallelism = 4
	cfg.FaultInjector = faultinject.New(
		faultinject.Fault{Stage: faultinject.StagePrepWorker, Call: 1, Kind: faultinject.Panic})
	res, err = New(cfg).Run(faultCorpus(t))
	if !errors.Is(err, ErrStagePanic) {
		t.Fatalf("err = %v, want ErrStagePanic", err)
	}
	if res.StopReason.Stage != faultinject.StagePrep {
		t.Fatalf("StopReason = %+v, want prep stage", res.StopReason)
	}
}

// benchToy builds a tiny labeled training set so the benchmark's model pays
// a realistic Viterbi decode per sentence without an expensive bootstrap.
func benchToy(n int) []tagger.Sequence {
	vals := []string{"1kg", "2kg", "3kg", "5kg"}
	var seqs []tagger.Sequence
	for i := 0; i < n; i++ {
		v := vals[i%len(vals)]
		seqs = append(seqs, tagger.Sequence{
			Tokens: []string{"weight", "is", v, "total"},
			PoS:    []string{"NN", "PART", "NUM", "NN"},
			Labels: []string{"O", "O", "B-重量", "O"},
		})
	}
	return seqs
}

// BenchmarkTagCorpus measures the tagging hot path — the dominant
// steady-state cost of a bootstrap iteration, now routed through the shared
// extract.Engine — including its per-worker buffer reuse. Run with -benchmem
// to see the allocation reductions.
func BenchmarkTagCorpus(b *testing.B) {
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 9, Items: 120})
	scfg := seed.Config{Tokenizer: text.ForLanguage(gc.Lang)}.WithDefaults()
	var sents []seed.SentenceOf
	for _, p := range gc.Pages {
		sents = append(sents, seed.SplitDocument(p, scfg)...)
	}
	model, err := crf.Trainer{Config: crf.Config{MaxIter: 20}}.Fit(benchToy(40))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			eng := extract.Engine{Model: model, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := eng.TagSentences(context.Background(), sents); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
