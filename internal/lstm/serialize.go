package lstm

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/mat"
)

// cellWire is the serialised form of one LSTM cell.
type cellWire struct {
	Din, H int
	Wx, Wh []float64
	B      []float64
}

func (c *cell) wire() cellWire {
	return cellWire{Din: c.din, H: c.h, Wx: c.wx.Data, Wh: c.wh.Data, B: c.b}
}

func cellFromWire(w cellWire) (*cell, error) {
	if w.Din <= 0 || w.H <= 0 ||
		len(w.Wx) != 4*w.H*w.Din || len(w.Wh) != 4*w.H*w.H || len(w.B) != 4*w.H {
		return nil, fmt.Errorf("lstm: corrupt cell (din=%d h=%d)", w.Din, w.H)
	}
	return &cell{
		din: w.Din, h: w.H,
		wx: mat.FromSlice(4*w.H, w.Din, w.Wx),
		wh: mat.FromSlice(4*w.H, w.H, w.Wh),
		b:  w.B,
	}, nil
}

// modelWire is the serialised form of a Model.
type modelWire struct {
	Version   int
	Config    Config
	Labels    []string
	Words     []string // id order, starting at id 1 (0 = UNK)
	Chars     []rune
	WordEmb   []float64
	CharEmb   []float64
	CharFwd   cellWire
	CharBwd   cellWire
	WordFwd   cellWire
	WordBwd   cellWire
	Out       []float64
	OutB      []float64
	OutRows   int
	OutCols   int
	WordEmbNR int // rows of the word-embedding matrix
	CharEmbNR int
}

const wireVersion = 1

// gob allocates wire type ids from a process-global counter in first-use
// order, and those ids appear in the encoded stream. Encoding a zero value
// here pins modelWire's ids at package init, so saved model bytes (and the
// content fingerprints built on them) never depend on which other code used
// gob first in the process — e.g. checkpoint or shard-entry encoding.
func init() { _ = gob.NewEncoder(io.Discard).Encode(modelWire{}) }

// Save writes the trained network to w in a versioned gob format.
func (m *Model) Save(w io.Writer) error {
	words := make([]string, len(m.wordVocab))
	for s, id := range m.wordVocab {
		words[id-1] = s
	}
	chars := make([]rune, len(m.charVocab))
	for r, id := range m.charVocab {
		chars[id-1] = r
	}
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(modelWire{
		Version: wireVersion,
		Config:  m.cfg,
		Labels:  m.labels,
		Words:   words,
		Chars:   chars,
		WordEmb: m.wordEmb.Data, WordEmbNR: m.wordEmb.Rows,
		CharEmb: m.charEmb.Data, CharEmbNR: m.charEmb.Rows,
		CharFwd: m.charFwd.wire(), CharBwd: m.charBwd.wire(),
		WordFwd: m.wordFwd.wire(), WordBwd: m.wordBwd.wire(),
		Out: m.out.Data, OutRows: m.out.Rows, OutCols: m.out.Cols,
		OutB: m.outB,
	}); err != nil {
		return fmt.Errorf("lstm: encode: %w", err)
	}
	return bw.Flush()
}

// Load reads a network previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var w modelWire
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&w); err != nil {
		return nil, fmt.Errorf("lstm: decode: %w", err)
	}
	if w.Version != wireVersion {
		return nil, fmt.Errorf("lstm: unsupported model version %d", w.Version)
	}
	if len(w.Labels) == 0 {
		return nil, fmt.Errorf("lstm: model has no labels")
	}
	cf, err := cellFromWire(w.CharFwd)
	if err != nil {
		return nil, err
	}
	cb, err := cellFromWire(w.CharBwd)
	if err != nil {
		return nil, err
	}
	wf, err := cellFromWire(w.WordFwd)
	if err != nil {
		return nil, err
	}
	wb, err := cellFromWire(w.WordBwd)
	if err != nil {
		return nil, err
	}
	cfg := w.Config
	if w.WordEmbNR <= 0 || w.CharEmbNR <= 0 ||
		len(w.WordEmb) != w.WordEmbNR*cfg.WordDim ||
		len(w.CharEmb) != w.CharEmbNR*cfg.CharDim ||
		len(w.Out) != w.OutRows*w.OutCols || len(w.OutB) != len(w.Labels) {
		return nil, fmt.Errorf("lstm: corrupt model parameters")
	}
	// Each part's own shape is not enough: Predict chains them, so they must
	// fit together exactly as Fit builds them.
	hc, hw := cfg.CharHidden, cfg.WordHidden
	if cf.din != cfg.CharDim || cf.h != hc || cb.din != cfg.CharDim || cb.h != hc ||
		wf.din != cfg.WordDim+2*hc || wf.h != hw || wb.din != cfg.WordDim+2*hc || wb.h != hw ||
		w.OutRows != len(w.Labels) || w.OutCols != 2*hw ||
		w.WordEmbNR != len(w.Words)+1 || w.CharEmbNR != len(w.Chars)+1 {
		return nil, fmt.Errorf("lstm: corrupt model: layer shapes do not fit together")
	}
	m := &Model{
		cfg:       cfg,
		labels:    w.Labels,
		labelIdx:  make(map[string]int, len(w.Labels)),
		wordVocab: make(map[string]int, len(w.Words)),
		charVocab: make(map[rune]int, len(w.Chars)),
		wordEmb:   mat.FromSlice(w.WordEmbNR, cfg.WordDim, w.WordEmb),
		charEmb:   mat.FromSlice(w.CharEmbNR, cfg.CharDim, w.CharEmb),
		charFwd:   cf, charBwd: cb, wordFwd: wf, wordBwd: wb,
		out:  mat.FromSlice(w.OutRows, w.OutCols, w.Out),
		outB: w.OutB,
	}
	// Save writes each vocabulary by id, so a repeated entry would leave an
	// id without a word and fail the re-encode.
	for i, l := range w.Labels {
		if _, dup := m.labelIdx[l]; dup {
			return nil, fmt.Errorf("lstm: corrupt model: duplicate label %q", l)
		}
		m.labelIdx[l] = i
	}
	for i, s := range w.Words {
		if _, dup := m.wordVocab[s]; dup {
			return nil, fmt.Errorf("lstm: corrupt model: duplicate word %q", s)
		}
		m.wordVocab[s] = i + 1
	}
	for i, r := range w.Chars {
		if _, dup := m.charVocab[r]; dup {
			return nil, fmt.Errorf("lstm: corrupt model: duplicate char %q", r)
		}
		m.charVocab[r] = i + 1
	}
	return m, nil
}
