// Package extract is the reusable extraction engine: the one code path that
// turns a trained model plus product-page text into <product, attribute,
// value> triples. The bootstrap loop (internal/core) routes its per-iteration
// corpus tagging through Engine, and the serving layer (cmd/paeserve) wraps
// Engine in an Extractor built from a frozen model bundle — so train time and
// serve time can never disagree about span decoding, confidence filtering, or
// veto cleaning.
package extract

import (
	"context"

	"repro/internal/faultinject"
	"repro/internal/par"
	"repro/internal/seed"
	"repro/internal/tagger"
	"repro/internal/text"
	"repro/internal/triples"
)

// Engine runs a trained model over prepared sentences — the tagging hot path
// shared by the bootstrap's tag stage and the serve-time Extractor. The zero
// value plus a Model is usable; an Engine is immutable after construction and
// safe for concurrent use (each TagSentences call mints its own per-worker
// predictors; the shared model weights stay read-only).
type Engine struct {
	// Model is the trained sequence tagger.
	Model tagger.Model
	// MinConfidence, when positive and the model's predictor reports
	// confidences (tagger.ConfidenceModel), drops spans whose least-certain
	// token falls below it. Ignored for predictors without confidence
	// support (ensembles).
	MinConfidence float64
	// Workers bounds the sentence-tagging worker pool; zero means one per
	// CPU. Per-sentence results merge in sentence order, so the output is
	// byte-identical for every Workers value.
	Workers int
	// Inject, when non-nil, fires the tag.worker fault-injection hook once
	// per sentence — the chaos-testing boundary the bootstrap threads
	// through. Nil in production.
	Inject *faultinject.Injector
}

// TagSentences runs the model over every sentence on a bounded worker pool
// and decodes spans to deduplicated triples. Each worker slot owns one minted
// predictor (when the model is a tagger.PredictorModel) so the hot Viterbi
// loop reuses decode buffers; with MinConfidence set, that same predictor is
// asked for confidences. Per-sentence triples land in index-addressed slots
// and merge in sentence order, making the output byte-identical for every
// worker count. Cancellation is observed between sentences; a worker panic
// escapes as *par.WorkerPanic for the caller's stage guards.
func (e Engine) TagSentences(ctx context.Context, sents []seed.SentenceOf) ([]triples.Triple, error) {
	slots := par.Workers(e.Workers)
	if slots > len(sents) && len(sents) > 0 {
		slots = len(sents)
	}
	preds := make([]tagger.Model, slots)
	confPreds := make([]tagger.ConfidenceModel, slots)
	for w := range preds {
		preds[w] = e.Model
		if pm, ok := e.Model.(tagger.PredictorModel); ok {
			preds[w] = pm.NewPredictor()
		}
		if e.MinConfidence > 0 {
			confPreds[w], _ = preds[w].(tagger.ConfidenceModel)
		}
	}
	perSent := make([][]triples.Triple, len(sents))
	err := par.ForEachWorker(ctx, e.Workers, len(sents), func(w, i int) error {
		if err := e.Inject.Fire(faultinject.StageTagWorker); err != nil {
			return err
		}
		s := sents[i]
		seq := tagger.Sequence{
			Tokens:        text.Texts(s.Tokens),
			PoS:           posStrings(s),
			SentenceIndex: s.Index,
			PageID:        s.DocID,
		}
		var labels []string
		var conf []float64
		cp := confPreds[w]
		if cp != nil {
			labels, conf = cp.PredictWithConfidence(seq)
		} else {
			labels = preds[w].Predict(seq)
		}
		for _, sp := range tagger.Spans(labels) {
			if cp != nil && SpanMinConf(conf, sp) < e.MinConfidence {
				continue
			}
			perSent[i] = append(perSent[i], triples.Triple{
				ProductID: s.DocID,
				Attribute: sp.Attribute,
				Value:     tagger.SpanText(seq.Tokens, sp),
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []triples.Triple
	for _, ts := range perSent {
		out = append(out, ts...)
	}
	return triples.Dedup(out), nil
}

// SpanMinConf returns the smallest per-token confidence inside the span —
// the span's weakest link, which is what Engine compares against
// MinConfidence. Tokens beyond the confidence slice are ignored; an empty
// span (or one entirely past the slice) scores a fully confident 1.0, so a
// decoder glitch can never be rejected by accident.
func SpanMinConf(conf []float64, sp tagger.Span) float64 {
	minV := 1.0
	for i := sp.Start; i < sp.End && i < len(conf); i++ {
		if conf[i] < minV {
			minV = conf[i]
		}
	}
	return minV
}

func posStrings(s seed.SentenceOf) []string {
	out := make([]string, len(s.PoS))
	for i, t := range s.PoS {
		out[i] = string(t)
	}
	return out
}
