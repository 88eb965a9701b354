package lstm

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/tagger"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	model, err := Trainer{Config: smallConfig(3)}.Fit(toySequences(15, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.(*Model).Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seq := tagger.Sequence{Tokens: []string{"weight", "is", "7", "kg"}}
	pa := model.(*Model).forwardProbs(seq.Tokens, nil)
	pb := loaded.forwardProbs(seq.Tokens, nil)
	for i := range pa {
		for j := range pa[i] {
			if math.Abs(pa[i][j]-pb[i][j]) > 1e-15 {
				t.Fatalf("probabilities changed after round trip at [%d][%d]", i, j)
			}
		}
	}
}

func TestSaveLoadFilePreservesOOVHandling(t *testing.T) {
	model, err := Trainer{Config: smallConfig(1)}.Fit(toySequences(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.(*Model).Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// OOV words and runes must still route through UNK.
	got := loaded.Predict(tagger.Sequence{Tokens: []string{"未知", "zzz"}})
	if len(got) != 2 {
		t.Fatalf("OOV prediction = %v", got)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("garbage accepted")
	}
}
