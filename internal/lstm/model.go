package lstm

import (
	"fmt"
	"sort"

	"repro/internal/mat"
	"repro/internal/tagger"
)

// Config holds the network and training hyper-parameters. Zero values take
// the defaults, which follow NeuroNER's out-of-the-box configuration scaled
// to per-category corpus sizes.
type Config struct {
	WordDim    int     // word-embedding dimension (default 48)
	CharDim    int     // char-embedding dimension (default 24)
	CharHidden int     // per-direction char LSTM size (default 24)
	WordHidden int     // per-direction word LSTM size (default 48)
	Epochs     int     // SGD epochs (default 2, the paper's stable setting)
	Rate       float64 // initial learning rate (default 0.5)
	Decay      float64 // per-epoch learning-rate decay (default 0.05)
	Dropout    float64 // dropout on the token representation (default 0.5)
	ClipNorm   float64 // global gradient-norm clip (default 5)
	MinCount   int     // words rarer than this become UNK (default 2)
	Seed       uint64  // RNG seed (default 1)
	// Batch is the deterministic mini-batch size (default 8). All sentences
	// of a batch compute gradients against the batch-start weights; the SGD
	// updates are then applied one sentence at a time in batch order. Batch
	// changes the trained weights, so it is part of the model identity.
	Batch int
	// Workers bounds how many sentences of a batch run forward/backward
	// concurrently; zero means one per CPU. Gradients are applied in batch
	// order regardless of scheduling, so the trained model is bit-identical
	// for every Workers value. Workers is normalised to zero on the trained
	// model so saved artifacts do not depend on the machine that ran.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.WordDim <= 0 {
		c.WordDim = 48
	}
	if c.CharDim <= 0 {
		c.CharDim = 24
	}
	if c.CharHidden <= 0 {
		c.CharHidden = 24
	}
	if c.WordHidden <= 0 {
		c.WordHidden = 48
	}
	if c.Epochs <= 0 {
		c.Epochs = 2
	}
	if c.Rate <= 0 {
		c.Rate = 0.5
	}
	if c.Decay <= 0 {
		c.Decay = 0.05
	}
	if c.Dropout < 0 || c.Dropout >= 1 {
		c.Dropout = 0.5
	} else if c.Dropout == 0 {
		c.Dropout = 0.5
	}
	if c.ClipNorm <= 0 {
		c.ClipNorm = 5
	}
	if c.MinCount <= 0 {
		c.MinCount = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Batch <= 0 {
		c.Batch = DefaultBatch
	}
	return c
}

// DefaultBatch is the mini-batch size a zero Config.Batch resolves to,
// exported so the pipeline can report the effective value in its telemetry.
const DefaultBatch = 8

// Model is a trained BiLSTM tagger.
type Model struct {
	cfg       Config
	labels    []string
	labelIdx  map[string]int
	wordVocab map[string]int // id 0 is UNK
	charVocab map[rune]int   // id 0 is UNK

	wordEmb *mat.Matrix // |Vw| × WordDim
	charEmb *mat.Matrix // |Vc| × CharDim
	charFwd *cell
	charBwd *cell
	wordFwd *cell
	wordBwd *cell
	out     *mat.Matrix // L × 2·WordHidden
	outB    []float64
}

// Labels returns the label alphabet.
func (m *Model) Labels() []string { return m.labels }

func (m *Model) wordID(w string) int {
	if id, ok := m.wordVocab[w]; ok {
		return id
	}
	return 0
}

func (m *Model) charIDs(w string) []int {
	rs := []rune(w)
	ids := make([]int, len(rs))
	for i, r := range rs {
		if id, ok := m.charVocab[r]; ok {
			ids[i] = id
		}
	}
	return ids
}

// tokenRep computes the representation of one token: char-BiLSTM final
// states concatenated with the word embedding.
func (m *Model) tokenRep(w string) (rep []float64, fwdSteps, bwdSteps []step, chars []int) {
	chars = m.charIDs(w)
	hc := m.cfg.CharHidden
	rep = make([]float64, m.cfg.WordDim+2*hc)
	copy(rep, m.wordEmb.Row(m.wordID(w)))
	if len(chars) == 0 {
		return rep, nil, nil, chars
	}
	inputs := make([][]float64, len(chars))
	for i, c := range chars {
		inputs[i] = m.charEmb.Row(c)
	}
	fwdSteps = m.charFwd.forward(inputs)
	bwdSteps = m.charBwd.forward(reverse(inputs))
	copy(rep[m.cfg.WordDim:], fwdSteps[len(fwdSteps)-1].h)
	copy(rep[m.cfg.WordDim+hc:], bwdSteps[len(bwdSteps)-1].h)
	return rep, fwdSteps, bwdSteps, chars
}

// Predict implements tagger.Model: per-token argmax over the softmax output,
// as in NeuroNER's demo configuration.
func (m *Model) Predict(seq tagger.Sequence) []string {
	labels, _ := m.PredictWithConfidence(seq)
	return labels
}

// PredictWithConfidence implements tagger.ConfidenceModel: the argmax labels
// plus their softmax probabilities.
func (m *Model) PredictWithConfidence(seq tagger.Sequence) ([]string, []float64) {
	n := len(seq.Tokens)
	labels := make([]string, n)
	conf := make([]float64, n)
	if n == 0 {
		return labels, conf
	}
	probs := m.forwardProbs(seq.Tokens, nil)
	for t := 0; t < n; t++ {
		best, arg := -1.0, 0
		for y, p := range probs[t] {
			if p > best {
				best, arg = p, y
			}
		}
		labels[t] = m.labels[arg]
		conf[t] = best
	}
	return labels, conf
}

// forwardProbs runs the full network forward. When cache is non-nil the
// intermediate activations are stored there for backpropagation.
func (m *Model) forwardProbs(tokens []string, cache *fwdCache) [][]float64 {
	n := len(tokens)
	reps := make([][]float64, n)
	var charF, charB [][]step
	var charIDs [][]int
	if cache != nil {
		charF = make([][]step, n)
		charB = make([][]step, n)
		charIDs = make([][]int, n)
	}
	for t, w := range tokens {
		rep, fs, bs, cs := m.tokenRep(w)
		reps[t] = rep
		if cache != nil {
			charF[t], charB[t], charIDs[t] = fs, bs, cs
		}
	}
	if cache != nil && cache.dropMask != nil {
		for t := range reps {
			for j := range reps[t] {
				reps[t][j] *= cache.dropMask[t][j]
			}
		}
	}
	fwdSteps := m.wordFwd.forward(reps)
	bwdSteps := m.wordBwd.forward(reverse(reps))
	hw := m.cfg.WordHidden
	L := len(m.labels)
	probs := make([][]float64, n)
	hidden := make([][]float64, n)
	for t := 0; t < n; t++ {
		h := make([]float64, 2*hw)
		copy(h, fwdSteps[t].h)
		copy(h[hw:], bwdSteps[n-1-t].h)
		hidden[t] = h
		logits := make([]float64, L)
		copy(logits, m.outB)
		m.out.MulVecAdd(logits, h)
		mat.Softmax(logits, logits)
		probs[t] = logits
	}
	if cache != nil {
		cache.reps = reps
		cache.charF, cache.charB, cache.charIDs = charF, charB, charIDs
		cache.wordF, cache.wordB = fwdSteps, bwdSteps
		cache.hidden = hidden
		cache.probs = probs
		cache.tokens = tokens
	}
	return probs
}

// fwdCache stores activations of one sentence for backprop.
type fwdCache struct {
	tokens   []string
	reps     [][]float64
	dropMask [][]float64
	charF    [][]step
	charB    [][]step
	charIDs  [][]int
	wordF    []step
	wordB    []step
	hidden   [][]float64
	probs    [][]float64
}

// Degenerate-training errors returned by Fit; both wrap
// tagger.ErrDegenerateTraining so the bootstrap engine can classify them
// without depending on this package's internals.
var errNoData = fmt.Errorf("lstm: empty training set: %w", tagger.ErrDegenerateTraining)
var errNoSpans = fmt.Errorf("lstm: training set has no labeled spans: %w", tagger.ErrDegenerateTraining)

// buildVocab collects word and char vocabularies (id 0 reserved for UNK) in
// deterministic order.
func buildVocab(train []tagger.Sequence, minCount int) (map[string]int, map[rune]int) {
	wc := make(map[string]int)
	cc := make(map[rune]int)
	for _, s := range train {
		for _, w := range s.Tokens {
			wc[w]++
			for _, r := range w {
				cc[r]++
			}
		}
	}
	var words []string
	for w, c := range wc {
		if c >= minCount {
			words = append(words, w)
		}
	}
	sort.Strings(words)
	wv := make(map[string]int, len(words)+1)
	for i, w := range words {
		wv[w] = i + 1
	}
	var chars []rune
	for r := range cc {
		chars = append(chars, r)
	}
	sort.Slice(chars, func(i, j int) bool { return chars[i] < chars[j] })
	cv := make(map[rune]int, len(chars)+1)
	for i, r := range chars {
		cv[r] = i + 1
	}
	return wv, cv
}
