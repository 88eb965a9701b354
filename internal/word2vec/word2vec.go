// Package word2vec implements skip-gram word embeddings with negative
// sampling (Mikolov et al.), the semantic model the PAE cleaning module
// retrains from scratch in every bootstrap iteration. The paper cannot reuse
// pre-trained embeddings because product values are domain-specific and new
// multiword entities appear in each iteration; this implementation therefore
// optimises for cheap, deterministic retraining on a per-category corpus
// rather than for web-scale corpora.
package word2vec

import (
	"math"
	"sort"

	"repro/internal/mat"
)

// Config holds the training hyper-parameters. Zero values are replaced by
// the defaults the pipeline uses.
type Config struct {
	Dim          int     // embedding dimensionality (default 32)
	Window       int     // context window radius (default 3)
	NegSamples   int     // negative samples per positive pair (default 5)
	Epochs       int     // passes over the corpus (default 3)
	LearningRate float64 // initial SGD step, linearly decayed (default 0.025)
	MinCount     int     // discard words rarer than this (default 2)
	// Subsample is Mikolov's frequent-word subsampling threshold t: an
	// occurrence of a word with relative corpus frequency f is kept with
	// probability sqrt(t/f) when f > t. Without it, the function words
	// that fill product text (は, です, ...) dominate every context window
	// and all value embeddings collapse onto one direction. Default 1e-3;
	// negative disables.
	Subsample float64
	Seed      uint64 // RNG seed (default 1)
}

func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 32
	}
	if c.Window <= 0 {
		c.Window = 3
	}
	if c.NegSamples <= 0 {
		c.NegSamples = 5
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.025
	}
	if c.MinCount <= 0 {
		c.MinCount = 2
	}
	if c.Subsample == 0 {
		c.Subsample = 1e-3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Model holds trained embeddings. Input vectors (the usual "word vectors")
// are exposed; output vectors stay internal.
type Model struct {
	vocab map[string]int
	words []string
	in    *mat.Matrix // |V| × Dim input embeddings
	dim   int
}

// SentenceStream replays the token corpus: every invocation must yield the
// same sentences in the same order (training makes one counting pass and one
// encoding pass), and must stop when the yield callback returns an error.
// It is how callers hand a disk-backed corpus to TrainStream without ever
// materialising every sentence in memory.
type SentenceStream func(yield func(tokens []string) error) error

// TrainStream builds a vocabulary from a replayable sentence stream and fits
// skip-gram embeddings. The vocabulary pass and the corpus-encoding pass each
// stream the sentences once, so the only per-corpus state held in memory is
// the id-encoded corpus (one int per in-vocabulary token — an order of
// magnitude smaller than the string form, and the minimum the shuffled
// multi-epoch SGD below can work from). It returns a model with an empty
// vocabulary (but usable API) when the corpus has no word meeting MinCount,
// and the stream's error when a replay fails.
func TrainStream(stream SentenceStream, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	counts := make(map[string]int)
	if err := stream(func(s []string) error {
		for _, w := range s {
			counts[w]++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var words []string
	for w, c := range counts {
		if c >= cfg.MinCount {
			words = append(words, w)
		}
	}
	sort.Strings(words) // deterministic vocabulary order
	vocab := make(map[string]int, len(words))
	for i, w := range words {
		vocab[w] = i
	}
	m := &Model{vocab: vocab, words: words, dim: cfg.Dim}
	if len(words) == 0 {
		return m, nil
	}

	rng := mat.NewRNG(cfg.Seed)
	m.in = mat.New(len(words), cfg.Dim)
	m.in.Uniform(rng, -0.5/float64(cfg.Dim), 0.5/float64(cfg.Dim))
	out := mat.New(len(words), cfg.Dim)

	table := buildUnigramTable(words, counts)

	// Encode corpus once.
	var corpus [][]int
	var totalTokens int
	if err := stream(func(s []string) error {
		ids := make([]int, 0, len(s))
		for _, w := range s {
			if id, ok := vocab[w]; ok {
				ids = append(ids, id)
			}
		}
		if len(ids) > 1 {
			corpus = append(corpus, ids)
			totalTokens += len(ids)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if totalTokens == 0 {
		return m, nil
	}

	// Frequent-word subsampling: keep probability per word id.
	keep := make([]float64, len(words))
	for i, w := range words {
		keep[i] = 1
		if cfg.Subsample > 0 {
			f := float64(counts[w]) / float64(totalTokens)
			if f > cfg.Subsample {
				keep[i] = math.Sqrt(cfg.Subsample / f)
			}
		}
	}

	grad := make([]float64, cfg.Dim)
	steps := 0
	totalSteps := cfg.Epochs * totalTokens
	filtered := make([]int, 0, 64)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order := rng.Perm(len(corpus))
		for _, si := range order {
			filtered = filtered[:0]
			for _, id := range corpus[si] {
				if keep[id] >= 1 || rng.Float64() < keep[id] {
					filtered = append(filtered, id)
				}
			}
			if len(filtered) < 2 {
				continue
			}
			sent := filtered
			for pos, center := range sent {
				steps++
				lr := cfg.LearningRate * (1 - float64(steps)/float64(totalSteps+1))
				if lr < cfg.LearningRate*1e-4 {
					lr = cfg.LearningRate * 1e-4
				}
				win := 1 + rng.Intn(cfg.Window)
				for off := -win; off <= win; off++ {
					ctx := pos + off
					if off == 0 || ctx < 0 || ctx >= len(sent) {
						continue
					}
					mat.ZeroVec(grad)
					inVec := m.in.Row(center)
					// Positive pair plus negative samples.
					for k := 0; k <= cfg.NegSamples; k++ {
						var target int
						var label float64
						if k == 0 {
							target, label = sent[ctx], 1
						} else {
							target = table[rng.Intn(len(table))]
							if target == sent[ctx] {
								continue
							}
						}
						outVec := out.Row(target)
						g := (label - mat.Sigmoid(mat.Dot(inVec, outVec))) * lr
						mat.Axpy(g, outVec, grad)
						mat.Axpy(g, inVec, outVec)
					}
					mat.Axpy(1, grad, inVec)
				}
			}
		}
	}
	m.center()
	return m, nil
}

// center subtracts the mean embedding from every word vector ("all-but-the-
// top" post-processing, Mu et al. 2018). Skip-gram with negative sampling on
// small corpora pushes every input vector away from the same frequent-word
// outputs, leaving a large shared component that drives all cosines toward
// 1; removing it restores the discriminative structure the semantic-drift
// filter needs.
func (m *Model) center() {
	if m.in == nil || m.in.Rows == 0 {
		return
	}
	mean := make([]float64, m.dim)
	for r := 0; r < m.in.Rows; r++ {
		mat.Axpy(1, m.in.Row(r), mean)
	}
	mat.ScaleVec(1/float64(m.in.Rows), mean)
	for r := 0; r < m.in.Rows; r++ {
		mat.Axpy(-1, mean, m.in.Row(r))
	}
}

// buildUnigramTable creates the negative-sampling table with the standard
// unigram^0.75 smoothing.
func buildUnigramTable(words []string, counts map[string]int) []int {
	const tableSize = 100_000
	pow := make([]float64, len(words))
	var total float64
	for i, w := range words {
		pow[i] = math.Pow(float64(counts[w]), 0.75)
		total += pow[i]
	}
	table := make([]int, 0, tableSize)
	for i := range words {
		n := int(pow[i] / total * tableSize)
		if n < 1 {
			n = 1
		}
		for j := 0; j < n; j++ {
			table = append(table, i)
		}
	}
	return table
}

// Has reports whether word is in the model vocabulary.
func (m *Model) Has(word string) bool {
	_, ok := m.vocab[word]
	return ok
}

// Vector returns the embedding of word and whether it is in vocabulary. The
// returned slice aliases model storage; callers must not modify it.
func (m *Model) Vector(word string) ([]float64, bool) {
	id, ok := m.vocab[word]
	if !ok || m.in == nil {
		return nil, false
	}
	return m.in.Row(id), true
}

// Similarity returns the cosine similarity between two words, or 0 if either
// is out of vocabulary.
func (m *Model) Similarity(a, b string) float64 {
	va, oka := m.Vector(a)
	vb, okb := m.Vector(b)
	if !oka || !okb {
		return 0
	}
	return mat.CosineSimilarity(va, vb)
}

// VocabSize returns the number of in-vocabulary words.
func (m *Model) VocabSize() int { return len(m.words) }

// Words returns the vocabulary in deterministic (sorted) order. The slice is
// shared; callers must not modify it.
func (m *Model) Words() []string { return m.words }
