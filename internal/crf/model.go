package crf

import (
	"math"

	"repro/internal/tagger"
)

// Model is a trained linear-chain CRF. Parameters are split into emission
// weights, one per (feature, label) pair, and transition weights, one per
// (previous label, label) pair with a virtual BOS row.
type Model struct {
	cfg      Config
	labels   []string
	labelIdx map[string]int
	featIdx  map[string]int
	// emit is numFeats*numLabels, row-major by feature.
	emit []float64
	// trans is (numLabels+1)*numLabels, row-major by previous label; the
	// last row is the virtual begin-of-sentence state.
	trans []float64
}

// bosRow returns the transition-row index of the virtual BOS state.
func (m *Model) bosRow() int { return len(m.labels) }

// Labels returns the model's label alphabet (Outside first).
func (m *Model) Labels() []string { return m.labels }

// NumFeatures returns the size of the emission feature alphabet.
func (m *Model) NumFeatures() int { return len(m.featIdx) }

// emissionScores fills dst (len numLabels) with the emission score of every
// label at a position whose active features are feats.
func (m *Model) emissionScores(dst []float64, feats []int) {
	L := len(m.labels)
	for y := range dst {
		dst[y] = 0
	}
	for _, f := range feats {
		row := m.emit[f*L : (f+1)*L]
		for y, w := range row {
			dst[y] += w
		}
	}
}

// Predict implements tagger.Model using exact Viterbi decoding. Callers
// decoding many sequences should mint a Decoder instead — this convenience
// form allocates a fresh one per call.
func (m *Model) Predict(seq tagger.Sequence) []string {
	return m.NewDecoder().Predict(seq)
}

// NewPredictor implements tagger.PredictorModel. The minted Decoder also
// implements tagger.ConfidenceModel.
func (m *Model) NewPredictor() tagger.Model { return m.NewDecoder() }

// Decoder decodes sequences against a trained model with reusable Viterbi
// and forward–backward buffers, so the steady-state tagging loop allocates
// only its outputs. A Decoder is owned by one goroutine; the model weights
// it reads are shared and immutable, so any number of Decoders may run
// concurrently over the same Model.
type Decoder struct {
	m       *Model
	featBuf []string
	feats   [][]int
	score   []float64
	back    []int
	emitBuf []float64
	enc     encodedSeq
	fb      *fb
	// transExp is m.expTrans's table, filled by the first confidence call:
	// a decoder may be minted before the model's weights exist (Fit interns
	// its training set through one).
	transExp []float64
}

// NewDecoder mints a decoder for use by a single goroutine.
func (m *Model) NewDecoder() *Decoder {
	return &Decoder{m: m, emitBuf: make([]float64, len(m.labels)), fb: newFB(len(m.labels))}
}

// featureIDs interns the active features of every position into the
// decoder's reusable row buffers.
func (d *Decoder) featureIDs(seq tagger.Sequence) [][]int {
	n := len(seq.Tokens)
	for len(d.feats) < n {
		d.feats = append(d.feats, nil)
	}
	for t := 0; t < n; t++ {
		d.featBuf = appendFeaturesAt(d.featBuf[:0], seq, t, d.m.cfg.Feature)
		row := d.feats[t][:0]
		for _, f := range d.featBuf {
			if id, ok := d.m.featIdx[f]; ok {
				row = append(row, id)
			}
		}
		d.feats[t] = row
	}
	return d.feats[:n]
}

// Predict implements tagger.Model using exact Viterbi decoding.
func (d *Decoder) Predict(seq tagger.Sequence) []string {
	n := len(seq.Tokens)
	out := make([]string, n)
	if n == 0 {
		return out
	}
	d.viterbi(out, d.featureIDs(seq), n)
	return out
}

// PredictWithConfidence implements tagger.ConfidenceModel: the Viterbi path
// plus, per token, the posterior marginal probability of the label the path
// chose.
func (d *Decoder) PredictWithConfidence(seq tagger.Sequence) ([]string, []float64) {
	n := len(seq.Tokens)
	labels := make([]string, n)
	conf := make([]float64, n)
	if n == 0 {
		return labels, conf
	}
	m := d.m
	feats := d.featureIDs(seq)
	d.viterbi(labels, feats, n)
	d.enc.feats = feats
	if d.transExp == nil {
		d.transExp = m.expTrans(nil)
	}
	d.fb.run(m, d.transExp, &d.enc, n)
	L := len(m.labels)
	for t := 0; t < n; t++ {
		y := m.labelIdx[labels[t]]
		conf[t] = d.fb.alpha[t*L+y] * d.fb.beta[t*L+y]
	}
	return labels, conf
}

// viterbi writes the best label path for the featurised sequence into out.
func (d *Decoder) viterbi(out []string, feats [][]int, n int) {
	m := d.m
	L := len(m.labels)
	if cap(d.score) < n*L {
		d.score = make([]float64, n*L)
		d.back = make([]int, n*L)
	}
	score := d.score[:n*L]
	back := d.back[:n*L]
	emitBuf := d.emitBuf

	m.emissionScores(emitBuf, feats[0])
	bos := m.trans[m.bosRow()*L:]
	for y := 0; y < L; y++ {
		score[y] = emitBuf[y] + bos[y]
		back[y] = -1
	}
	for t := 1; t < n; t++ {
		m.emissionScores(emitBuf, feats[t])
		prevRow := score[(t-1)*L : t*L]
		curRow := score[t*L : (t+1)*L]
		backRow := back[t*L : (t+1)*L]
		for y := 0; y < L; y++ {
			best, arg := math.Inf(-1), 0
			for prev := 0; prev < L; prev++ {
				s := prevRow[prev] + m.trans[prev*L+y]
				if s > best {
					best, arg = s, prev
				}
			}
			curRow[y] = best + emitBuf[y]
			backRow[y] = arg
		}
	}
	// Trace back from the best final label.
	best, arg := math.Inf(-1), 0
	lastRow := score[(n-1)*L:]
	for y := 0; y < L; y++ {
		if lastRow[y] > best {
			best, arg = lastRow[y], y
		}
	}
	for t := n - 1; t >= 0; t-- {
		out[t] = m.labels[arg]
		arg = back[t*L+arg]
	}
}
