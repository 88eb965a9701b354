package extract

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/seed"
	"repro/internal/tagger"
	"repro/internal/text"
	"repro/internal/triples"
)

func TestSpanMinConf(t *testing.T) {
	conf := []float64{0.9, 0.2, 0.7}
	for _, tc := range []struct {
		name string
		conf []float64
		sp   tagger.Span
		want float64
	}{
		{"normal span", conf, tagger.Span{Start: 0, End: 3}, 0.2},
		{"single-token B- span", conf, tagger.Span{Start: 2, End: 3}, 0.7},
		{"empty span", conf, tagger.Span{Start: 1, End: 1}, 1.0},
		{"span extending past the confidence slice", conf, tagger.Span{Start: 2, End: 5}, 0.7},
		{"span entirely past the slice", conf, tagger.Span{Start: 5, End: 7}, 1.0},
		{"empty confidence slice", nil, tagger.Span{Start: 0, End: 2}, 1.0},
		{"first token weakest", []float64{0.05, 0.9}, tagger.Span{Start: 0, End: 2}, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := SpanMinConf(tc.conf, tc.sp); got != tc.want {
				t.Fatalf("SpanMinConf(%v, %+v) = %g, want %g", tc.conf, tc.sp, got, tc.want)
			}
		})
	}
}

// stubModel labels "5" as B-weight, a following "kg" as I-weight, and known
// colors as B-color. Deterministic and training-free, so engine tests
// exercise the engine, not a model.
type stubModel struct{}

func (stubModel) Predict(seq tagger.Sequence) []string {
	labels := make([]string, len(seq.Tokens))
	for i, tok := range seq.Tokens {
		switch {
		case tok == "5":
			labels[i] = "B-weight"
		case tok == "kg" && i > 0 && seq.Tokens[i-1] == "5":
			labels[i] = "I-weight"
		case tok == "red" || tok == "blue":
			labels[i] = "B-color"
		default:
			labels[i] = tagger.Outside
		}
	}
	return labels
}

// stubConfModel is stubModel with per-token confidences: every labeled token
// scores high except the value "5", which scores low — and the confidence
// slice is deliberately truncated to one entry short, exercising the
// past-the-slice path inside a real TagSentences call.
type stubConfModel struct {
	stubModel
	lowFive  float64
	truncate bool
}

func (m stubConfModel) PredictWithConfidence(seq tagger.Sequence) ([]string, []float64) {
	labels := m.Predict(seq)
	n := len(labels)
	if m.truncate && n > 0 {
		n--
	}
	conf := make([]float64, n)
	for i := range conf {
		conf[i] = 0.95
		if seq.Tokens[i] == "5" {
			conf[i] = m.lowFive
		}
	}
	return labels, conf
}

func sentencesFor(t *testing.T, texts ...string) []seed.SentenceOf {
	t.Helper()
	tok := text.JapaneseTokenizer{}
	var out []seed.SentenceOf
	for i, s := range texts {
		toks := tok.Tokenize(s)
		if len(toks) == 0 {
			t.Fatalf("no tokens for %q", s)
		}
		out = append(out, seed.SentenceOf{DocID: "p1", Index: i, Tokens: toks})
	}
	return out
}

func TestTagSentencesDecodesSpans(t *testing.T) {
	sents := sentencesFor(t, "weight is 5 kg", "color is red")
	got, err := Engine{Model: stubModel{}}.TagSentences(context.Background(), sents)
	if err != nil {
		t.Fatal(err)
	}
	want := []triples.Triple{
		{ProductID: "p1", Attribute: "color", Value: "red"},
		{ProductID: "p1", Attribute: "weight", Value: "5kg"},
	}
	if !sameTriples(got, want) {
		t.Fatalf("TagSentences = %v, want %v", got, want)
	}
}

// MinConfidence must drop a span whose weakest token is below the threshold…
func TestTagSentencesConfidenceFilter(t *testing.T) {
	sents := sentencesFor(t, "weight is 5 kg", "color is red")
	eng := Engine{Model: stubConfModel{lowFive: 0.1}, MinConfidence: 0.5}
	got, err := eng.TagSentences(context.Background(), sents)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range got {
		if tr.Attribute == "weight" {
			t.Fatalf("low-confidence weight span survived: %v", got)
		}
	}
	if len(got) != 1 || got[0].Attribute != "color" {
		t.Fatalf("TagSentences = %v, want only the color triple", got)
	}
}

// …and a span reaching past a truncated confidence slice is scored by the
// tokens that do have confidences, never rejected for the missing ones.
func TestTagSentencesConfidencePastSlice(t *testing.T) {
	// "weight is 5 kg": the truncated slice stops before "kg", so the
	// weight span's min-conf is the (high-ish) confidence of "5" alone.
	sents := sentencesFor(t, "weight is 5 kg")
	eng := Engine{Model: stubConfModel{lowFive: 0.6, truncate: true}, MinConfidence: 0.5}
	got, err := eng.TagSentences(context.Background(), sents)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value != "5kg" {
		t.Fatalf("TagSentences = %v, want the 5kg span kept", got)
	}
}

// stubPredictorModel reports no confidences itself; the predictor it mints
// does, scoring the value "5" low.
type stubPredictorModel struct{ stubModel }

func (stubPredictorModel) NewPredictor() tagger.Model { return stubConfModel{lowFive: 0.1} }

// The engine asks the minted predictor, not the model, for confidences: with
// MinConfidence set the predictor's low-confidence weight span is dropped,
// and with MinConfidence 0 it is kept.
func TestEngineConfidenceFromPredictor(t *testing.T) {
	sents := sentencesFor(t, "weight is 5 kg", "color is red")
	for _, tc := range []struct {
		minConf float64
		want    []string
	}{
		{0.5, []string{"color"}},
		{0, []string{"weight", "color"}},
	} {
		eng := Engine{Model: stubPredictorModel{}, MinConfidence: tc.minConf}
		got, err := eng.TagSentences(context.Background(), sents)
		if err != nil {
			t.Fatal(err)
		}
		var attrs []string
		for _, tr := range got {
			attrs = append(attrs, tr.Attribute)
		}
		if !reflect.DeepEqual(attrs, tc.want) {
			t.Fatalf("MinConfidence %g: attributes %v, want %v", tc.minConf, attrs, tc.want)
		}
	}
}

// Ensembles report no confidences, so MinConfidence must be inert — never a
// panic, never a dropped span.
func TestTagSentencesEnsembleIgnoresMinConfidence(t *testing.T) {
	sents := sentencesFor(t, "weight is 5 kg", "color is blue")
	ens := &tagger.Ensemble{Members: []tagger.Model{stubModel{}, stubModel{}}, Mode: tagger.Intersection}
	eng := Engine{Model: ens, MinConfidence: 0.99}
	got, err := eng.TagSentences(context.Background(), sents)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ensemble with MinConfidence dropped spans: %v", got)
	}
}

func TestTagSentencesDeterministicAcrossWorkers(t *testing.T) {
	var texts []string
	for i := 0; i < 40; i++ {
		texts = append(texts, "weight is 5 kg", "color is red today")
	}
	sents := sentencesFor(t, texts...)
	base, err := Engine{Model: stubModel{}, Workers: 1}.TagSentences(context.Background(), sents)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := Engine{Model: stubModel{}, Workers: workers}.TagSentences(context.Background(), sents)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d changed output: %v vs %v", workers, got, base)
		}
	}
}

func TestTagSentencesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sents := sentencesFor(t, "weight is 5 kg")
	_, err := Engine{Model: stubModel{}}.TagSentences(ctx, sents)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func sameTriples(a, b []triples.Triple) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[triples.Triple]int)
	for _, t := range a {
		seen[t]++
	}
	for _, t := range b {
		seen[t]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}
