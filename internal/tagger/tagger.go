// Package tagger defines the sequence-labeling contract shared by the CRF
// and BiLSTM models, together with the BIO label scheme the pipeline uses to
// turn attribute-value spans into per-token labels and back.
package tagger

import (
	"errors"
	"strings"
)

// Shared failure sentinels of the trainers. They live here — the one package
// every model implementation already imports — so the bootstrap engine can
// classify a training failure with errors.Is without depending on which
// model produced it.
var (
	// ErrDegenerateTraining marks a training set a model cannot learn from:
	// empty, or containing no labeled span at all (a tagger fit on pure
	// Outside data degenerates to a constant predictor).
	ErrDegenerateTraining = errors.New("tagger: degenerate training set")
	// ErrDiverged marks numeric divergence during optimisation — a NaN or
	// Inf loss. The weights that produced it are garbage and must not tag
	// the corpus.
	ErrDiverged = errors.New("tagger: model diverged (NaN/Inf loss)")
)

// Outside is the BIO label of tokens that belong to no attribute value.
const Outside = "O"

// Sequence is one labeled (or to-be-labeled) sentence. Tokens, PoS and
// Labels are parallel; Labels may be nil for unlabeled input. SentenceIndex
// is the position of the sentence within its source page, one of the CRF
// feature templates the paper lists.
type Sequence struct {
	Tokens        []string
	PoS           []string
	Labels        []string
	SentenceIndex int
	PageID        string
}

// Model is a trained sequence tagger.
type Model interface {
	// Predict returns one BIO label per token of seq. It never returns a
	// slice of the wrong length.
	Predict(seq Sequence) []string
}

// ConfidenceModel is a Model that can also report how sure it is of each
// token's label, as a probability in [0, 1]. The bootstrap engine uses the
// confidences to drop low-certainty spans before they poison the next
// iteration's training set.
type ConfidenceModel interface {
	Model
	// PredictWithConfidence returns the labels Predict would return plus a
	// per-token confidence for the chosen label.
	PredictWithConfidence(seq Sequence) ([]string, []float64)
}

// PredictorModel is a Model that can mint per-goroutine predictors carrying
// reusable decode buffers. The parallel tagging stage gives each worker its
// own predictor, so the hot decode loop allocates nothing per sentence while
// the shared model weights stay read-only. A minted predictor must return
// exactly the labels the model itself would; when it also implements
// ConfidenceModel, the tagging stage asks it for confidences.
type PredictorModel interface {
	Model
	// NewPredictor returns a predictor for use by a single goroutine.
	NewPredictor() Model
}

// Begin returns the B- label for an attribute.
func Begin(attr string) string { return "B-" + attr }

// Inside returns the I- label for an attribute.
func Inside(attr string) string { return "I-" + attr }

// Attr extracts the attribute name of a B-/I- label, or "" for Outside.
func Attr(label string) string {
	if len(label) > 2 && (label[0] == 'B' || label[0] == 'I') && label[1] == '-' {
		return label[2:]
	}
	return ""
}

// Span is a contiguous attribute-value mention: tokens [Start, End) carry
// the attribute Attribute.
type Span struct {
	Attribute string
	Start     int
	End       int
}

// Spans decodes a BIO label sequence into attribute spans. It is tolerant of
// the classic decoder glitches — an I- without a preceding B- opens a new
// span, and an I- whose attribute differs from the open span closes it and
// opens another — because the bootstrapping loop feeds model output straight
// back in and must not crash on imperfect label sequences.
func Spans(labels []string) []Span {
	var spans []Span
	var open *Span
	for i, l := range labels {
		attr := Attr(l)
		switch {
		case attr == "":
			if open != nil {
				spans = append(spans, *open)
				open = nil
			}
		case strings.HasPrefix(l, "B-") || open == nil || open.Attribute != attr:
			if open != nil {
				spans = append(spans, *open)
			}
			open = &Span{Attribute: attr, Start: i, End: i + 1}
		default: // I- continuing the open span
			open.End = i + 1
		}
	}
	if open != nil {
		spans = append(spans, *open)
	}
	return spans
}

// Encode writes BIO labels for a span into labels, overwriting whatever was
// there. The caller guarantees 0 <= s.Start < s.End <= len(labels).
func Encode(labels []string, s Span) {
	labels[s.Start] = Begin(s.Attribute)
	for i := s.Start + 1; i < s.End; i++ {
		labels[i] = Inside(s.Attribute)
	}
}

// SpanText reconstructs the surface form of a span by joining its tokens.
// Token joining is script-aware at the call sites that need it; here plain
// concatenation is used because both evaluation languages tokenize without
// removing intra-value characters.
func SpanText(tokens []string, s Span) string {
	return strings.Join(tokens[s.Start:s.End], "")
}

// LabelSet returns every distinct label occurring in the training data, with
// Outside first, then the rest in first-seen order. Both models use it to
// build their tag alphabets.
func LabelSet(seqs []Sequence) []string {
	labels := []string{Outside}
	seen := map[string]bool{Outside: true}
	for _, s := range seqs {
		for _, l := range s.Labels {
			if !seen[l] {
				seen[l] = true
				labels = append(labels, l)
			}
		}
	}
	return labels
}
