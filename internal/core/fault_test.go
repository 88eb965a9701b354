package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/crf"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/lstm"
	"repro/internal/triples"
)

// faultCorpus is one small generated corpus shared by the containment tests.
func faultCorpus(t *testing.T) Corpus {
	t.Helper()
	return corpusFor(generated(t, gen.VacuumCleaner(), 9, 90))
}

func tripleKeys(ts []triples.Triple) map[string]bool {
	m := make(map[string]bool, len(ts))
	for _, tr := range ts {
		m[tr.Key()] = true
	}
	return m
}

func sameTriples(t *testing.T, want, got []triples.Triple) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("triple counts differ: want %d, got %d", len(want), len(got))
	}
	wk := tripleKeys(want)
	for _, tr := range got {
		if !wk[tr.Key()] {
			t.Fatalf("unexpected triple %+v", tr)
		}
	}
}

// TestPanicContainedInEveryStage proves the tentpole property: a panic in
// any single bootstrap stage never crosses Run. The run keeps the completed
// iterations and reports a typed StopReason naming the failed stage.
func TestPanicContainedInEveryStage(t *testing.T) {
	c := faultCorpus(t)
	for _, stage := range []string{
		faultinject.StageTrain,
		faultinject.StageTag,
		faultinject.StageVeto,
		faultinject.StageSemantic,
		faultinject.StageOracle,
	} {
		t.Run(stage, func(t *testing.T) {
			cfg := fastConfig()
			cfg.Iterations = 3
			cfg.Oracle = func(ts []triples.Triple) []triples.Triple { return ts }
			cfg.FaultInjector = faultinject.New(
				faultinject.Fault{Stage: stage, Call: 2, Kind: faultinject.Panic})
			res, err := New(cfg).Run(c)
			if err != nil {
				t.Fatalf("panic escaped as run error: %v", err)
			}
			if len(res.Iterations) != 1 {
				t.Fatalf("completed iterations = %d, want 1", len(res.Iterations))
			}
			sr := res.StopReason
			if sr.Completed() {
				t.Fatal("StopReason empty after injected panic")
			}
			if sr.Stage != stage || sr.Iteration != 2 {
				t.Fatalf("StopReason = %+v, want stage %q iteration 2", sr, stage)
			}
			if !errors.Is(sr.Err, ErrStagePanic) {
				t.Fatalf("StopReason.Err = %v, want ErrStagePanic", sr.Err)
			}
			var pe *PanicError
			if !errors.As(sr.Err, &pe) || len(pe.Stack) == 0 {
				t.Fatalf("StopReason.Err = %#v, want *PanicError with stack", sr.Err)
			}
			// The partial result is the clean state after iteration 1.
			sameTriples(t, res.Iterations[0].Triples, res.FinalTriples())
			if !strings.Contains(res.Describe(), "stopped at stage") {
				t.Fatalf("Describe hides the stop reason: %s", res.Describe())
			}
		})
	}
}

func TestSeedStagePanicReturnsTypedError(t *testing.T) {
	cfg := fastConfig()
	cfg.FaultInjector = faultinject.New(
		faultinject.Fault{Stage: faultinject.StageSeed, Kind: faultinject.Panic})
	res, err := New(cfg).Run(faultCorpus(t))
	if !errors.Is(err, ErrStagePanic) {
		t.Fatalf("err = %v, want ErrStagePanic", err)
	}
	if res == nil || res.StopReason.Stage != faultinject.StageSeed {
		t.Fatalf("result = %+v, want seed StopReason", res)
	}
}

func TestInjectedTrainErrorReported(t *testing.T) {
	cfg := fastConfig()
	cfg.FaultInjector = faultinject.New(
		faultinject.Fault{Stage: faultinject.StageTrain, Call: 1, Kind: faultinject.Error})
	res, err := New(cfg).Run(faultCorpus(t))
	if err != nil {
		t.Fatalf("run error = %v", err)
	}
	if len(res.Iterations) != 0 {
		t.Fatalf("iterations = %d, want 0", len(res.Iterations))
	}
	if !errors.Is(res.StopReason.Err, faultinject.ErrInjected) {
		t.Fatalf("StopReason.Err = %v, want ErrInjected", res.StopReason.Err)
	}
	// The seed survives a first-iteration failure.
	sameTriples(t, res.SeedTriples, res.FinalTriples())
}

// TestCRFDivergenceContained poisons the OWL-QN line search: the CRF aborts
// with ErrModelDiverged instead of tagging the corpus with garbage weights,
// and the run falls back to the seed triples.
func TestCRFDivergenceContained(t *testing.T) {
	cfg := fastConfig()
	cfg.FaultInjector = faultinject.New(
		faultinject.Fault{Stage: faultinject.StageCRFLineSearch, Call: 3, Kind: faultinject.NaN})
	res, err := New(cfg).Run(faultCorpus(t))
	if err != nil {
		t.Fatalf("run error = %v", err)
	}
	sr := res.StopReason
	if !errors.Is(sr.Err, ErrModelDiverged) {
		t.Fatalf("StopReason.Err = %v, want ErrModelDiverged", sr.Err)
	}
	if sr.Stage != faultinject.StageTrain || sr.Iteration != 1 {
		t.Fatalf("StopReason = %+v", sr)
	}
	if len(res.Iterations) != 0 {
		t.Fatalf("diverged run recorded %d iterations", len(res.Iterations))
	}
	sameTriples(t, res.SeedTriples, res.FinalTriples())
}

// TestLSTMDivergenceKeepsPreviousIteration poisons the BiLSTM epoch loss in
// the second bootstrap cycle (epochs=2, so lstm.epoch call 3 is iteration
// 2's first epoch): iteration 1's triples survive, iteration 2 is aborted.
func TestLSTMDivergenceKeepsPreviousIteration(t *testing.T) {
	cfg := fastConfig()
	cfg.Iterations = 3
	cfg.Model = RNN
	cfg.LSTM = lstm.Config{Epochs: 2}
	cfg.FaultInjector = faultinject.New(
		faultinject.Fault{Stage: faultinject.StageLSTMEpoch, Call: 3, Kind: faultinject.NaN})
	res, err := New(cfg).Run(faultCorpus(t))
	if err != nil {
		t.Fatalf("run error = %v", err)
	}
	sr := res.StopReason
	if !errors.Is(sr.Err, ErrModelDiverged) {
		t.Fatalf("StopReason.Err = %v, want ErrModelDiverged", sr.Err)
	}
	if sr.Iteration != 2 || sr.Stage != faultinject.StageTrain {
		t.Fatalf("StopReason = %+v, want train stage iteration 2", sr)
	}
	if len(res.Iterations) != 1 {
		t.Fatalf("iterations = %d, want 1", len(res.Iterations))
	}
	sameTriples(t, res.Iterations[0].Triples, res.FinalTriples())
}

// TestInjectedCancellation wires a Cancel fault to the run context: the tag
// stage of iteration 2 observes the cancellation, iteration 1 survives.
func TestInjectedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := fastConfig()
	cfg.Iterations = 3
	cfg.FaultInjector = faultinject.New(
		faultinject.Fault{Stage: faultinject.StageTag, Call: 2, Kind: faultinject.Cancel, Cancel: cancel})
	res, err := New(cfg).RunContext(ctx, faultCorpus(t))
	if err != nil {
		t.Fatalf("run error = %v", err)
	}
	sr := res.StopReason
	if !errors.Is(sr.Err, ErrCanceled) || !errors.Is(sr.Err, context.Canceled) {
		t.Fatalf("StopReason.Err = %v, want ErrCanceled wrapping context.Canceled", sr.Err)
	}
	if sr.Stage != faultinject.StageTag || sr.Iteration != 2 {
		t.Fatalf("StopReason = %+v, want tag stage iteration 2", sr)
	}
	if len(res.Iterations) != 1 {
		t.Fatalf("iterations = %d, want 1", len(res.Iterations))
	}
}

func TestPreCanceledContextReturnsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New(fastConfig()).RunContext(ctx, faultCorpus(t))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Fatalf("res = %+v, want nil before any work", res)
	}
}

// TestCancellationInsideCRFTraining cancels mid-optimisation: the trainer
// itself must observe the context between OWL-QN iterations, not only the
// stage boundaries.
func TestCancellationInsideCRFTraining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := fastConfig()
	cfg.CRF = crf.Config{MaxIter: 60}
	cfg.FaultInjector = faultinject.New(
		// Cancel while iteration 1's line search is running: by objective
		// evaluation 4 the optimiser is mid-flight.
		faultinject.Fault{Stage: faultinject.StageCRFLineSearch, Call: 4, Kind: faultinject.Cancel, Cancel: cancel})
	res, err := New(cfg).RunContext(ctx, faultCorpus(t))
	if err != nil {
		t.Fatalf("run error = %v", err)
	}
	sr := res.StopReason
	if !errors.Is(sr.Err, ErrCanceled) {
		t.Fatalf("StopReason.Err = %v, want ErrCanceled", sr.Err)
	}
	if sr.Stage != faultinject.StageTrain || sr.Iteration != 1 {
		t.Fatalf("StopReason = %+v, want train stage iteration 1", sr)
	}
}

func TestStopReasonStrings(t *testing.T) {
	var s StopReason
	if !s.Completed() || s.String() != "completed" {
		t.Fatalf("zero StopReason = %q", s.String())
	}
	s = StopReason{Stage: "train", Iteration: 2, Err: ErrModelDiverged}
	if s.Completed() || !strings.Contains(s.String(), "iteration 2") {
		t.Fatalf("StopReason.String() = %q", s.String())
	}
}
