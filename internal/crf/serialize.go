package crf

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
)

// modelWire is the serialised form of a Model. Only exported fields cross
// the gob boundary, so the in-memory Model keeps its unexported layout.
type modelWire struct {
	Version int
	Config  Config
	Labels  []string
	// Features lists feature strings in id order.
	Features []string
	Emit     []float64
	Trans    []float64
}

const wireVersion = 1

// maxLoadWindow bounds the feature window Load accepts. Featurizing renders
// 2·Window+1 offsets per token, so an unbounded window would let a tiny
// model stall every Predict; 1024 is far wider than any useful context.
const maxLoadWindow = 1024

// gob allocates wire type ids from a process-global counter in first-use
// order, and those ids appear in the encoded stream. Encoding a zero value
// here pins modelWire's ids at package init, so saved model bytes (and the
// content fingerprints built on them) never depend on which other code used
// gob first in the process — e.g. checkpoint or shard-entry encoding.
func init() { _ = gob.NewEncoder(io.Discard).Encode(modelWire{}) }

// Save writes the trained model to w. The format is gob-encoded and
// versioned; Load rejects unknown versions.
func (m *Model) Save(w io.Writer) error {
	feats := make([]string, len(m.featIdx))
	for f, id := range m.featIdx {
		feats[id] = f
	}
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(modelWire{
		Version:  wireVersion,
		Config:   m.cfg,
		Labels:   m.labels,
		Features: feats,
		Emit:     m.emit,
		Trans:    m.trans,
	}); err != nil {
		return fmt.Errorf("crf: encode: %w", err)
	}
	return bw.Flush()
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var w modelWire
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&w); err != nil {
		return nil, fmt.Errorf("crf: decode: %w", err)
	}
	if w.Version != wireVersion {
		return nil, fmt.Errorf("crf: unsupported model version %d", w.Version)
	}
	L := len(w.Labels)
	if L == 0 {
		return nil, fmt.Errorf("crf: model has no labels")
	}
	if win := w.Config.Feature.Window; win > maxLoadWindow {
		return nil, fmt.Errorf("crf: corrupt model: feature window %d exceeds %d", win, maxLoadWindow)
	}
	if len(w.Emit) != len(w.Features)*L || len(w.Trans) != (L+1)*L {
		return nil, fmt.Errorf("crf: corrupt model: %d features, %d labels, %d emission and %d transition weights",
			len(w.Features), L, len(w.Emit), len(w.Trans))
	}
	m := &Model{
		cfg:      w.Config,
		labels:   w.Labels,
		labelIdx: make(map[string]int, L),
		featIdx:  make(map[string]int, len(w.Features)),
		emit:     w.Emit,
		trans:    w.Trans,
	}
	// Save writes features by id, so a repeated string would leave an id
	// without a feature and fail the re-encode; a repeated label would make
	// two Viterbi states indistinguishable.
	for i, l := range w.Labels {
		if _, dup := m.labelIdx[l]; dup {
			return nil, fmt.Errorf("crf: corrupt model: duplicate label %q", l)
		}
		m.labelIdx[l] = i
	}
	for i, f := range w.Features {
		if _, dup := m.featIdx[f]; dup {
			return nil, fmt.Errorf("crf: corrupt model: duplicate feature %q", f)
		}
		m.featIdx[f] = i
	}
	return m, nil
}
