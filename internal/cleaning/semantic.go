package cleaning

import (
	"math"
	"sort"
	"strings"

	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/triples"
	"repro/internal/word2vec"
)

// SemanticConfig parameterises the semantic-drift filter.
type SemanticConfig struct {
	// CoreSize is the n of the paper's parameter exploration (§VIII-B): the
	// number of mutually most-similar values kept as each attribute's
	// semantic core. 0 means unrestricted (every value is core), the
	// setting the paper found to cost at most ~1% precision.
	CoreSize int
	// MinSimilarity is the geometric-mean cosine similarity to the core
	// below which a value's triples are discarded (default 0.12).
	MinSimilarity float64
	// Embedding configures the word2vec model retrained on each call.
	Embedding word2vec.Config
	// TokenizeValue splits a value string into the same tokens the corpus
	// sentences use, so multiword values can be grouped. Defaults to
	// strings.Fields, which suits whitespace languages; the pipeline
	// injects the real tokenizer.
	TokenizeValue func(string) []string
	// Obs, when non-nil, receives per-attribute kill counters
	// ("semantic.killed.<attr>"), so drift removals can be attributed to the
	// attributes they hit. Nil (the default) records nothing.
	Obs *obs.Recorder
}

// WithDefaults fills unset fields. The embedding defaults are tuned for the
// small per-category corpora the filter retrains on every iteration: enough
// epochs and dimensions that attribute-value clusters separate from
// distractor tokens.
func (c SemanticConfig) WithDefaults() SemanticConfig {
	if c.MinSimilarity == 0 {
		c.MinSimilarity = 0.12
	}
	if c.TokenizeValue == nil {
		c.TokenizeValue = strings.Fields
	}
	if c.Embedding.Dim == 0 {
		c.Embedding.Dim = 48
	}
	if c.Embedding.Epochs == 0 {
		c.Embedding.Epochs = 10
	}
	return c
}

// SemanticCleanStream retrains a word2vec model on the corpus sentences —
// with each multiword attribute value grouped into a single token, step (i)
// of §V-C — computes each attribute's semantic core, and removes triples
// whose value drifted away from it. It returns the survivors and the number
// of removed triples.
//
// stream replays the tokenized page corpus of the current iteration (the
// word2vec.SentenceStream contract: every invocation yields the identical
// sequence); the filter never mutates its sentences. Multiword-value grouping
// is applied per sentence as it flows by, so the filter holds no per-corpus
// sentence state — memory is bounded by the embedding model, not the corpus.
func SemanticCleanStream(ts []triples.Triple, stream word2vec.SentenceStream, cfg SemanticConfig) ([]triples.Triple, int, error) {
	cfg = cfg.WithDefaults()
	if len(ts) == 0 {
		return ts, 0, nil
	}
	// Step (i): group multiword values into single tokens so they get one
	// embedding each.
	grouper := newValueGrouper(ts, cfg.TokenizeValue)
	model, err := word2vec.TrainStream(func(yield func([]string) error) error {
		return stream(func(sent []string) error {
			return yield(grouper.group(sent))
		})
	}, cfg.Embedding)
	if err != nil {
		return nil, 0, err
	}

	byAttr := triples.ByAttribute(ts)
	removedValues := make(map[string]map[string]bool) // attr → dropped values
	for _, attr := range triples.SortedAttributes(byAttr) {
		group := byAttr[attr]
		values := distinctValues(group)
		vecs := make(map[string][]float64)
		for _, v := range values {
			if vec, ok := model.Vector(valueToken(v, cfg.TokenizeValue)); ok {
				vecs[v] = vec
			}
		}
		if len(vecs) < 3 {
			continue // not enough signal to judge drift
		}
		core := semanticCore(values, vecs, cfg.CoreSize)
		drop := make(map[string]bool)
		for _, v := range values {
			vec, ok := vecs[v]
			if !ok {
				continue // out of vocabulary: cannot judge, keep
			}
			if coreSim(vec, v, core, vecs) < cfg.MinSimilarity {
				drop[v] = true
			}
		}
		if len(drop) > 0 {
			removedValues[attr] = drop
		}
	}
	var removed int
	out := ts[:0:0]
	for _, t := range ts {
		if removedValues[t.Attribute][t.Value] {
			removed++
			cfg.Obs.Add("semantic.killed."+t.Attribute, 1)
			continue
		}
		out = append(out, t)
	}
	return out, removed, nil
}

// semanticCore iteratively discards the value with the lowest cosine
// similarity to the rest until n values remain (step ii/iii of §V-C).
func semanticCore(values []string, vecs map[string][]float64, n int) []string {
	core := make([]string, 0, len(values))
	for _, v := range values {
		if _, ok := vecs[v]; ok {
			core = append(core, v)
		}
	}
	sort.Strings(core)
	if n <= 0 || n >= len(core) {
		return core
	}
	for len(core) > n {
		worstIdx, worstSim := -1, math.Inf(1)
		for i, v := range core {
			var sim float64
			for j, u := range core {
				if i == j {
					continue
				}
				sim += mat.CosineSimilarity(vecs[v], vecs[u])
			}
			sim /= float64(len(core) - 1)
			if sim < worstSim {
				worstSim, worstIdx = sim, i
			}
		}
		core = append(core[:worstIdx], core[worstIdx+1:]...)
	}
	return core
}

// coreSim returns the multiplicative combination (geometric mean) of the
// cosine similarities between the value and every core element, per the
// paper's footnote 4. Non-positive similarities are floored so a single
// orthogonal pair does not zero the product.
func coreSim(vec []float64, value string, core []string, vecs map[string][]float64) float64 {
	var logSum float64
	var n int
	for _, c := range core {
		if c == value {
			continue
		}
		s := mat.CosineSimilarity(vec, vecs[c])
		if s < 0.01 {
			s = 0.01
		}
		logSum += math.Log(s)
		n++
	}
	if n == 0 {
		return 1
	}
	return math.Exp(logSum / float64(n))
}

// valueGrouper rewrites sentences so every occurrence of a known multiword
// value becomes a single token, giving word2vec one vector per entity. The
// index over multi-token values is built once per cleaning pass; grouping is
// then applied one sentence at a time, so streamed corpora never need the
// whole grouped corpus in memory.
type valueGrouper struct {
	// Multi-token values keyed by their first token, longest first.
	byFirst map[string][]groupEntry
}

type groupEntry struct{ toks []string }

func newValueGrouper(ts []triples.Triple, tokenize func(string) []string) *valueGrouper {
	byFirst := make(map[string][]groupEntry)
	seen := make(map[string]bool)
	for _, t := range ts {
		toks := tokenize(t.Value)
		if len(toks) <= 1 {
			continue
		}
		k := strings.Join(toks, "\x01")
		if !seen[k] {
			seen[k] = true
			byFirst[toks[0]] = append(byFirst[toks[0]], groupEntry{toks: toks})
		}
	}
	for k := range byFirst {
		sort.Slice(byFirst[k], func(i, j int) bool {
			return len(byFirst[k][i].toks) > len(byFirst[k][j].toks)
		})
	}
	return &valueGrouper{byFirst: byFirst}
}

// group returns sent with every known multiword value collapsed into one
// token. The input is never mutated.
func (g *valueGrouper) group(sent []string) []string {
	var grouped []string
	for j := 0; j < len(sent); j++ {
		matched := false
		for _, e := range g.byFirst[sent[j]] {
			if j+len(e.toks) > len(sent) {
				continue
			}
			ok := true
			for k2, tok := range e.toks {
				if sent[j+k2] != tok {
					ok = false
					break
				}
			}
			if ok {
				grouped = append(grouped, strings.Join(e.toks, "␣"))
				j += len(e.toks) - 1
				matched = true
				break
			}
		}
		if !matched {
			grouped = append(grouped, sent[j])
		}
	}
	return grouped
}

// valueToken converts a triple value to the token form used in the grouped
// corpus.
func valueToken(v string, tokenize func(string) []string) string {
	toks := tokenize(v)
	if len(toks) <= 1 {
		return v
	}
	return strings.Join(toks, "␣")
}

// distinctValues returns the distinct values of a triple group in first-seen
// order.
func distinctValues(ts []triples.Triple) []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range ts {
		if !seen[t.Value] {
			seen[t.Value] = true
			out = append(out, t.Value)
		}
	}
	return out
}
