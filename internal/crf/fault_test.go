package crf

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/par"
	"repro/internal/tagger"
)

func TestFitDegenerateErrorsAreTyped(t *testing.T) {
	if _, err := (Trainer{}).Fit(nil); !errors.Is(err, tagger.ErrDegenerateTraining) {
		t.Fatalf("empty set err = %v, want ErrDegenerateTraining", err)
	}
	allO := []tagger.Sequence{{Tokens: []string{"a"}, PoS: []string{"NN"}, Labels: []string{"O"}}}
	if _, err := (Trainer{}).Fit(allO); !errors.Is(err, tagger.ErrDegenerateTraining) {
		t.Fatalf("all-O set err = %v, want ErrDegenerateTraining", err)
	}
}

func TestFitPoisonedLossDiverges(t *testing.T) {
	tr := Trainer{
		Config: Config{MaxIter: 40},
		Inject: faultinject.New(faultinject.Fault{
			Stage: faultinject.StageCRFLineSearch, Call: 2, Kind: faultinject.NaN}),
	}
	model, err := tr.Fit(trainToy(10))
	if !errors.Is(err, tagger.ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	if model != nil {
		t.Fatal("diverged Fit returned a model")
	}
}

func TestFitPoisonedFirstEvaluationDiverges(t *testing.T) {
	tr := Trainer{
		Config: Config{MaxIter: 40},
		Inject: faultinject.New(faultinject.Fault{
			Stage: faultinject.StageCRFLineSearch, Call: 1, Kind: faultinject.NaN}),
	}
	if _, err := tr.Fit(trainToy(10)); !errors.Is(err, tagger.ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

func TestFitCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := Trainer{Config: Config{MaxIter: 40}, Ctx: ctx}
	if _, err := tr.Fit(trainToy(10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFitUnaffectedByInertInjector(t *testing.T) {
	plain, err := Trainer{Config: Config{MaxIter: 40}}.Fit(trainToy(10))
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := Trainer{Config: Config{MaxIter: 40}, Inject: faultinject.New()}.Fit(trainToy(10))
	if err != nil {
		t.Fatal(err)
	}
	p, h := plain.(*Model), hooked.(*Model)
	if len(p.emit) != len(h.emit) {
		t.Fatal("model shapes differ")
	}
	for i := range p.emit {
		if p.emit[i] != h.emit[i] {
			t.Fatal("inert injector changed training")
		}
	}
}

// TestFitDeterministicAcrossWorkers asserts the gradient-partition scheme's
// core promise: the trained weights are bit-identical for every Workers
// value, because reduction order is fixed by the gradParts partitions.
func TestFitDeterministicAcrossWorkers(t *testing.T) {
	train := trainToy(10)
	fit := func(workers int) *Model {
		model, err := Trainer{Config: Config{MaxIter: 15, Workers: workers}}.Fit(train)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return model.(*Model)
	}
	base := fit(1)
	for _, workers := range []int{2, 8, 13} {
		m := fit(workers)
		if len(m.emit) != len(base.emit) {
			t.Fatalf("workers=%d: model size differs", workers)
		}
		for i := range base.emit {
			if base.emit[i] != m.emit[i] {
				t.Fatalf("workers=%d: emit[%d] = %v, want %v", workers, i, m.emit[i], base.emit[i])
			}
		}
		for i := range base.trans {
			if base.trans[i] != m.trans[i] {
				t.Fatalf("workers=%d: trans[%d] differs", workers, i)
			}
		}
		if m.cfg.Workers != 0 {
			t.Fatalf("workers=%d: trained model kept Workers=%d, want 0", workers, m.cfg.Workers)
		}
	}
}

// fitGoldenSHA256 is the SHA-256 of the saved bytes of trainToy(50) trained
// with Config{MaxIter: 30}. It was recorded before the objective evaluation
// shared one transition-exp table across partitions and reused the
// forward–backward emission scores for the gold path; those changes must not
// move a single bit of the model.
const fitGoldenSHA256 = "04e979998e9e8f90db3de2761a313dd12ffd78b0d9a6b3cdc236f58d764af2b4"

// TestFitGolden pins the trained model's bytes across versions of the
// training loop. The default L1 keeps OWL-QN's orthant logic in play, and
// Workers 1 and 8 cover the serial and fully partitioned schedules.
func TestFitGolden(t *testing.T) {
	train := trainToy(50)
	for _, workers := range []int{1, 8} {
		model, err := Trainer{Config: Config{MaxIter: 30, Workers: workers}}.Fit(train)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := model.(*Model).Save(&buf); err != nil {
			t.Fatalf("workers=%d: save: %v", workers, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != fitGoldenSHA256 {
			t.Fatalf("workers=%d: model SHA-256 = %s, want %s", workers, got, fitGoldenSHA256)
		}
	}
}

// TestFitGradWorkerFaults drives the parallel gradient stage: an injected
// error aborts optimisation as itself, and a worker panic escapes as a typed
// *par.WorkerPanic for the pipeline's stage guard to contain.
func TestFitGradWorkerFaults(t *testing.T) {
	cfg := Config{MaxIter: 15, Workers: 4}
	tr := Trainer{
		Config: cfg,
		Inject: faultinject.New(faultinject.Fault{
			Stage: faultinject.StageCRFGrad, Call: 1, Kind: faultinject.Error}),
	}
	if _, err := tr.Fit(trainToy(10)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}

	panicTr := Trainer{
		Config: cfg,
		Inject: faultinject.New(faultinject.Fault{
			Stage: faultinject.StageCRFGrad, Call: 1, Kind: faultinject.Panic}),
	}
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		panicTr.Fit(trainToy(10))
	}()
	if _, ok := recovered.(*par.WorkerPanic); !ok {
		t.Fatalf("recovered %T (%v), want *par.WorkerPanic", recovered, recovered)
	}
}

// TestDecoderMatchesModelPredictions: a Decoder reused across sequences must
// return exactly the labels and confidences a fresh Decoder would.
func TestDecoderMatchesModelPredictions(t *testing.T) {
	model, err := Trainer{Config: Config{MaxIter: 20}}.Fit(trainToy(12))
	if err != nil {
		t.Fatal(err)
	}
	m := model.(*Model)
	d := m.NewDecoder()
	seqs := trainToy(6)
	for i, seq := range seqs {
		seq.Labels = nil
		wantL, wantC := m.NewDecoder().PredictWithConfidence(seq)
		gotL, gotC := d.PredictWithConfidence(seq)
		for t2 := range wantL {
			if wantL[t2] != gotL[t2] || wantC[t2] != gotC[t2] {
				t.Fatalf("seq %d tok %d: reused decoder (%s %v) vs fresh (%s %v)",
					i, t2, gotL[t2], gotC[t2], wantL[t2], wantC[t2])
			}
		}
	}
}
