package bundle

import (
	"bytes"
	"encoding/gob"
	"errors"
	"runtime"
	"testing"

	"repro/internal/crf"
	"repro/internal/lstm"
	"repro/internal/tagger"
)

// An ensemble member's uint32 length prefix is untrusted input: a 15-byte
// model claiming a 1 GiB member must fail as corrupt without allocating the
// claimed size.
func TestDecodeModelBoundsEnsembleMemberLength(t *testing.T) {
	in := []byte{kindEnsemble, 0, 1, 0x40, 0, 0, 0, kindCRF, 1, 2, 3, 4, 5, 6, 7}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeModel(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("decoding a %d-byte input allocated %d bytes", len(in), d)
	}
}

// crfWire and lstmWire mirror the model packages' gob wire forms (gob
// matches struct fields by name), so tests can craft models that Fit would
// never produce.
type crfWire struct {
	Version          int
	Config           crf.Config
	Labels, Features []string
	Emit, Trans      []float64
}

type cellWire struct {
	Din, H    int
	Wx, Wh, B []float64
}

type lstmWire struct {
	Version                            int
	Config                             lstm.Config
	Labels, Words                      []string
	Chars                              []rune
	WordEmb, CharEmb                   []float64
	CharFwd, CharBwd, WordFwd, WordBwd cellWire
	Out, OutB                          []float64
	OutRows, OutCols                   int
	WordEmbNR, CharEmbNR               int
}

// wireBytes encodes a crafted wire struct behind a model kind byte.
func wireBytes(t testing.TB, kind byte, w any) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteByte(kind)
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tinyCRFWire is a well-formed two-label, two-feature CRF.
func tinyCRFWire() crfWire {
	return crfWire{
		Version:  1,
		Config:   crf.Config{Feature: crf.FeatureConfig{Window: 2}},
		Labels:   []string{"O", "B-weight"},
		Features: []string{"w0=2", "w0=kg"},
		Emit:     make([]float64, 2*2),
		Trans:    make([]float64, 3*2),
	}
}

// tinyRNNWire is a well-formed BiLSTM with every dimension 2, one word and
// one char, shaped exactly as Fit shapes its layers.
func tinyRNNWire() lstmWire {
	cell := func(din, h int) cellWire {
		return cellWire{Din: din, H: h,
			Wx: make([]float64, 4*h*din), Wh: make([]float64, 4*h*h), B: make([]float64, 4*h)}
	}
	return lstmWire{
		Version: 1,
		Config:  lstm.Config{WordDim: 2, CharDim: 2, CharHidden: 2, WordHidden: 2},
		Labels:  []string{"O", "B-weight"},
		Words:   []string{"kg"},
		Chars:   []rune{'k'},
		WordEmb: make([]float64, 2*2), WordEmbNR: 2,
		CharEmb: make([]float64, 2*2), CharEmbNR: 2,
		CharFwd: cell(2, 2), CharBwd: cell(2, 2),
		WordFwd: cell(2+2*2, 2), WordBwd: cell(2+2*2, 2),
		Out: make([]float64, 2*4), OutRows: 2, OutCols: 4,
		OutB: make([]float64, 2),
	}
}

// fuzzSentence is the fixed sentence every decoded model must tag.
var fuzzSentence = tagger.Sequence{
	Tokens: []string{"weight", "is", "2", "kg"},
	PoS:    []string{"NN", "PART", "NUM", "UNIT"},
}

// checkTags tags fuzzSentence through the same calls the extraction engine
// makes: a minted predictor, and its confidences when it reports them.
func checkTags(t *testing.T, m tagger.Model) {
	t.Helper()
	p := m
	if pm, ok := m.(tagger.PredictorModel); ok {
		p = pm.NewPredictor()
	}
	if got := p.Predict(fuzzSentence); len(got) != len(fuzzSentence.Tokens) {
		t.Fatalf("tagged %d tokens with %d labels", len(fuzzSentence.Tokens), len(got))
	}
	if cm, ok := p.(tagger.ConfidenceModel); ok {
		labels, conf := cm.PredictWithConfidence(fuzzSentence)
		if len(labels) != len(fuzzSentence.Tokens) || len(conf) != len(fuzzSentence.Tokens) {
			t.Fatalf("confidence path returned %d labels, %d confidences", len(labels), len(conf))
		}
	}
}

// TestDecodeModelRejectsUnusableModels: a model the codec accepts must be
// able to tag and to re-encode, so inputs that would break either fail at
// decode, typed as ErrCorrupt.
func TestDecodeModelRejectsUnusableModels(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   func(t *testing.T) []byte
	}{
		{"crf-gob-type-mismatch", func(*testing.T) []byte { return []byte{kindCRF, 1, 2, 3} }},
		{"crf-duplicate-feature", func(t *testing.T) []byte {
			w := tinyCRFWire()
			w.Features[1] = w.Features[0]
			return wireBytes(t, kindCRF, w)
		}},
		{"crf-unbounded-window", func(t *testing.T) []byte {
			w := tinyCRFWire()
			w.Config.Feature.Window = 1 << 40
			return wireBytes(t, kindCRF, w)
		}},
		{"rnn-duplicate-word", func(t *testing.T) []byte {
			w := tinyRNNWire()
			w.Words = []string{"kg", "kg"}
			w.WordEmb, w.WordEmbNR = make([]float64, 3*2), 3
			return wireBytes(t, kindRNN, w)
		}},
		{"rnn-duplicate-char", func(t *testing.T) []byte {
			w := tinyRNNWire()
			w.Chars = []rune{'k', 'k'}
			w.CharEmb, w.CharEmbNR = make([]float64, 3*2), 3
			return wireBytes(t, kindRNN, w)
		}},
		{"rnn-output-rows-exceed-labels", func(t *testing.T) []byte {
			w := tinyRNNWire()
			w.Out, w.OutRows = make([]float64, 3*4), 3
			return wireBytes(t, kindRNN, w)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := DecodeModel(bytes.NewReader(tc.in(t)))
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeModel = (%T, %v), want ErrCorrupt", m, err)
			}
		})
	}
}

// TestDecodeModelAcceptsCraftedTinyModels: the well-formed bases the cases
// above corrupt decode, tag and re-encode, so each rejection is down to its
// one defect.
func TestDecodeModelAcceptsCraftedTinyModels(t *testing.T) {
	for kind, w := range map[byte]any{kindCRF: tinyCRFWire(), kindRNN: tinyRNNWire()} {
		m, err := DecodeModel(bytes.NewReader(wireBytes(t, kind, w)))
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		checkTags(t, m)
		if err := EncodeModel(&bytes.Buffer{}, m); err != nil {
			t.Fatalf("kind %q: re-encode: %v", kind, err)
		}
	}
}

// FuzzDecodeModel feeds arbitrary bytes to the model codec. It must never
// panic; every failure is ErrCorrupt or ErrUnknownModel; and whatever it
// accepts must tag a fixed 4-token sentence and encode again. The seeds
// under testdata/fuzz/FuzzDecodeModel stay small (< 4 KB) so the fuzzer
// keeps its throughput.
func FuzzDecodeModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModel(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnknownModel) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if m == nil {
			t.Fatal("nil model without an error")
		}
		checkTags(t, m)
		var buf bytes.Buffer
		if err := EncodeModel(&buf, m); err != nil {
			t.Fatalf("decoded model does not encode: %v", err)
		}
	})
}
