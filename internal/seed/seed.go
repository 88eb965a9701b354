// Package seed implements the paper's Pre-Processor (§V-A, lines 1–5 of the
// Figure-1 algorithm): harvesting candidate <attribute, value> pairs from
// dictionary tables, aggregating redundant attribute names, cleaning values
// against the query log, diversifying value shapes, and generating the
// initial BIO-labeled training set.
package seed

import (
	"context"
	"math"
	"sort"
	"strings"

	"repro/internal/htmlx"
	"repro/internal/par"
	"repro/internal/pos"
	"repro/internal/tagger"
	"repro/internal/text"
	"repro/internal/workload"
)

// Document is one product page as the pipeline sees it.
type Document struct {
	ID   string
	HTML string
}

// Candidate is one harvested <attribute, value> pair, with the page it came
// from.
type Candidate struct {
	Attr  string
	Value string
	DocID string
}

// Config holds the pre-processor parameters.
type Config struct {
	Tokenizer text.Tokenizer
	Tagger    *pos.Tagger
	// AggThreshold is the similarity score above which two attribute names
	// are merged (default 0.3).
	AggThreshold float64
	// MinValueFreq keeps a value during cleaning only if it occurs at least
	// this often among candidates or appears in the query log (default 3).
	MinValueFreq int
	// TopShapes (k) and ValuesPerShape (n) parameterise diversification
	// (defaults 4 and 12).
	TopShapes      int
	ValuesPerShape int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Tokenizer == nil {
		c.Tokenizer = text.JapaneseTokenizer{}
	}
	if c.Tagger == nil {
		c.Tagger = pos.NewTagger()
	}
	if c.AggThreshold == 0 {
		c.AggThreshold = 0.3
	}
	if c.MinValueFreq == 0 {
		c.MinValueFreq = 3
	}
	if c.TopShapes == 0 {
		c.TopShapes = 4
	}
	if c.ValuesPerShape == 0 {
		c.ValuesPerShape = 12
	}
	return c
}

// DiscoverCandidates extracts every dictionary-table pair from the documents
// (Figure 1, line 2).
func DiscoverCandidates(docs []Document) []Candidate {
	var out []Candidate
	for _, d := range docs {
		for _, p := range htmlx.ExtractDictionaryPairs(d.HTML) {
			attr := strings.TrimSpace(p.Attribute)
			val := strings.TrimSpace(p.Value)
			if attr == "" || val == "" {
				continue
			}
			out = append(out, Candidate{Attr: attr, Value: val, DocID: d.ID})
		}
	}
	return out
}

// AggregateAttributes merges redundant attribute names (製造元 vs メーカー)
// using the value-overlap scoring of Charron et al. [4]: two attributes are
// similar if they share many values relative to the larger value set,
// discounted when their range sizes are very different. It returns the
// candidates rewritten to a representative name per merged group, plus the
// surface→representative mapping.
func AggregateAttributes(cands []Candidate, cfg Config) ([]Candidate, map[string]string) {
	cfg = cfg.WithDefaults()
	values := make(map[string]map[string]int)
	freq := make(map[string]int)
	for _, c := range cands {
		if values[c.Attr] == nil {
			values[c.Attr] = make(map[string]int)
		}
		values[c.Attr][c.Value]++
		freq[c.Attr]++
	}
	attrs := make([]string, 0, len(values))
	for a := range values {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)

	// Union-find over attribute names.
	parent := make(map[string]string, len(attrs))
	var find func(string) string
	find = func(a string) string {
		if parent[a] == a {
			return a
		}
		parent[a] = find(parent[a])
		return parent[a]
	}
	for _, a := range attrs {
		parent[a] = a
	}
	for i := 0; i < len(attrs); i++ {
		for j := i + 1; j < len(attrs); j++ {
			if score(values[attrs[i]], values[attrs[j]]) >= cfg.AggThreshold {
				parent[find(attrs[i])] = find(attrs[j])
			}
		}
	}
	// Representative = the most frequent surface name in each group.
	groups := make(map[string][]string)
	for _, a := range attrs {
		r := find(a)
		groups[r] = append(groups[r], a)
	}
	rep := make(map[string]string, len(attrs))
	for _, members := range groups {
		best := members[0]
		for _, m := range members[1:] {
			if freq[m] > freq[best] || (freq[m] == freq[best] && m < best) {
				best = m
			}
		}
		for _, m := range members {
			rep[m] = best
		}
	}
	out := make([]Candidate, len(cands))
	for i, c := range cands {
		out[i] = Candidate{Attr: rep[c.Attr], Value: c.Value, DocID: c.DocID}
	}
	return out, rep
}

// score implements the naive-confidence similarity of [4] as the paper
// describes it: two attributes are similar when they share many values, with
// the confidence reduced when the attributes have comparable range sizes.
// "Sharing" is measured as the histogram intersection of the two value
// frequency distributions, which stays robust when numeric attributes
// fragment into many rare exact values: two aliases of one attribute draw
// from the same distribution and intersect heavily, while a couple of
// swapped table cells contribute negligible mass.
func score(va, vb map[string]int) float64 {
	if len(va) == 0 || len(vb) == 0 {
		return 0
	}
	var totalA, totalB int
	for _, c := range va {
		totalA += c
	}
	for _, c := range vb {
		totalB += c
	}
	var inter float64
	var sharedDistinct int
	for v, ca := range va {
		cb, ok := vb[v]
		if !ok {
			continue
		}
		sharedDistinct++
		pa := float64(ca) / float64(totalA)
		pb := float64(cb) / float64(totalB)
		inter += math.Sqrt(pa * pb)
	}
	// Swapped table cells plant one or two stray shared values between
	// genuine attributes; real aliases share a spread of values. Requiring
	// three distinct shared values filters the noise without demanding the
	// repeat counts that fragmented numeric domains cannot provide.
	if sharedDistinct < 3 {
		return 0
	}
	small, large := len(va), len(vb)
	if small > large {
		small, large = large, small
	}
	balance := float64(small) / float64(large) // 1 = comparable range sizes
	return inter * (1 - 0.3*balance)
}

// CleanValues removes improbable attribute values (Figure 1, line 3): a
// value survives only if it appears in the query log or occurs frequently
// among the candidates.
func CleanValues(cands []Candidate, queries []string, cfg Config) []Candidate {
	cfg = cfg.WithDefaults()
	inQueries := make(map[string]bool, len(queries))
	for _, q := range queries {
		inQueries[normalize(q)] = true
	}
	freq := make(map[string]int)
	for _, c := range cands {
		freq[c.Attr+"\x00"+normalize(c.Value)]++
	}
	var out []Candidate
	for _, c := range cands {
		nv := normalize(c.Value)
		if inQueries[nv] || freq[c.Attr+"\x00"+nv] >= cfg.MinValueFreq {
			out = append(out, c)
		}
	}
	return out
}

// Diversify implements the paper's value-diversification module (§V-A, line
// 4): for each attribute it finds the k most frequent PoS-shape signatures
// among the raw candidates and re-admits the n most frequent values of each
// shape, so that rare-but-systematic shapes (decimal weights) survive even
// when the frequency cleaning dropped them.
func Diversify(clean, raw []Candidate, cfg Config) []Candidate {
	cfg = cfg.WithDefaults()
	type shapeKey struct{ attr, shape string }
	shapeFreq := make(map[shapeKey]int)
	valueFreq := make(map[string]int) // attr \x00 value → count
	valueShape := make(map[string]string)
	for _, c := range raw {
		toks := cfg.Tokenizer.Tokenize(c.Value)
		shape := cfg.Tagger.Shape(toks)
		if shape == "" {
			continue
		}
		shapeFreq[shapeKey{c.Attr, shape}]++
		vk := c.Attr + "\x00" + c.Value
		valueFreq[vk]++
		valueShape[vk] = shape
	}
	// Top-k shapes per attribute.
	byAttr := make(map[string][]shapeKey)
	for k := range shapeFreq {
		byAttr[k.attr] = append(byAttr[k.attr], k)
	}
	keepShape := make(map[shapeKey]bool)
	for _, keys := range byAttr {
		sort.Slice(keys, func(i, j int) bool {
			if shapeFreq[keys[i]] != shapeFreq[keys[j]] {
				return shapeFreq[keys[i]] > shapeFreq[keys[j]]
			}
			return keys[i].shape < keys[j].shape
		})
		for i, k := range keys {
			if i >= cfg.TopShapes {
				break
			}
			keepShape[k] = true
		}
	}
	// Top-n values per kept shape.
	type valEntry struct {
		attr, value string
		freq        int
	}
	byShape := make(map[shapeKey][]valEntry)
	for vk, f := range valueFreq {
		parts := strings.SplitN(vk, "\x00", 2)
		sk := shapeKey{parts[0], valueShape[vk]}
		if keepShape[sk] {
			byShape[sk] = append(byShape[sk], valEntry{parts[0], parts[1], f})
		}
	}
	have := make(map[string]bool)
	for _, c := range clean {
		have[c.Attr+"\x00"+c.Value] = true
	}
	out := append([]Candidate(nil), clean...)
	// Deterministic shape iteration order.
	var shapeKeys []shapeKey
	for sk := range byShape {
		shapeKeys = append(shapeKeys, sk)
	}
	sort.Slice(shapeKeys, func(i, j int) bool {
		if shapeKeys[i].attr != shapeKeys[j].attr {
			return shapeKeys[i].attr < shapeKeys[j].attr
		}
		return shapeKeys[i].shape < shapeKeys[j].shape
	})
	for _, sk := range shapeKeys {
		vals := byShape[sk]
		sort.Slice(vals, func(i, j int) bool {
			if vals[i].freq != vals[j].freq {
				return vals[i].freq > vals[j].freq
			}
			return vals[i].value < vals[j].value
		})
		for i, v := range vals {
			if i >= cfg.ValuesPerShape {
				break
			}
			k := v.attr + "\x00" + v.value
			if !have[k] {
				have[k] = true
				out = append(out, Candidate{Attr: v.attr, Value: v.value})
			}
		}
	}
	return out
}

// Pairs reduces candidates to their distinct <attribute, value> pairs in
// first-seen order.
func Pairs(cands []Candidate) []Candidate {
	seen := make(map[string]bool)
	var out []Candidate
	for _, c := range cands {
		k := c.Attr + "\x00" + c.Value
		if !seen[k] {
			seen[k] = true
			out = append(out, Candidate{Attr: c.Attr, Value: c.Value})
		}
	}
	return out
}

// Normalize canonicalises a value string for matching: spaces removed,
// ASCII letters lower-cased. The bootstrap engine uses it to key allowed
// triples consistently with the matcher.
func Normalize(s string) string { return normalize(s) }

func normalize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case ' ', '\t', '\n', '　':
			continue
		}
		sb.WriteRune(lower(r))
	}
	return sb.String()
}

func lower(r rune) rune {
	if r >= 'A' && r <= 'Z' {
		return r + ('a' - 'A')
	}
	return r
}

// SentenceOf is a tokenized sentence of a document, remembering where it
// came from.
type SentenceOf struct {
	DocID  string
	Index  int
	Tokens []text.Token
	PoS    []pos.Tag
}

// Split prepares one document for the given workload: detail pages are
// HTML-flattened and sentence-split (SplitDocument); titles are plain text
// tokenized as one sentence (SplitTitle). Every pass that prepares documents
// — the bootstrap's prep stage and the serve-time Extractor — goes through
// it, so training and serving can never disagree about sentence boundaries.
func Split(wk workload.Kind, d Document, cfg Config) []SentenceOf {
	if wk.WithDefault() == workload.Title {
		return SplitTitle(d, cfg)
	}
	return SplitDocument(d, cfg)
}

// SplitDocument flattens a detail page's HTML and returns its tokenized
// sentences.
func SplitDocument(d Document, cfg Config) []SentenceOf {
	cfg = cfg.WithDefaults()
	txt := htmlx.ExtractText(d.HTML)
	var out []SentenceOf
	for i, s := range text.SplitSentences(txt) {
		toks := cfg.Tokenizer.Tokenize(s)
		if len(toks) == 0 {
			continue
		}
		out = append(out, SentenceOf{
			DocID: d.ID, Index: i, Tokens: toks, PoS: cfg.Tagger.TagAll(toks),
		})
	}
	return out
}

// valueMatcher matches known values inside token sequences, longest match
// first.
type valueMatcher struct {
	// byFirst maps the first normalised token of a value to the candidate
	// token sequences starting with it, longest first.
	byFirst map[string][]matchEntry
}

type matchEntry struct {
	tokens []string // normalised token texts
	attr   string
	freq   int // candidate support for this (attr, value) claim
}

// newValueMatcher indexes the candidate pairs for in-sentence matching. The
// candidate list may contain repeats; their multiplicity becomes the claim
// frequency, so that when two attributes claim the same surface value (a
// swapped table cell vs the genuine attribute) the better-supported claim
// wins every occurrence instead of the tie being broken arbitrarily —
// without this, a single noisy seed pair poisons every occurrence of a
// popular value and snowballs across bootstrap iterations.
func newValueMatcher(pairs []Candidate, cfg Config) *valueMatcher {
	m := &valueMatcher{byFirst: make(map[string][]matchEntry)}
	type claim struct {
		norm []string
		attr string
	}
	freq := make(map[string]int)
	var order []claim
	for _, p := range pairs {
		toks := cfg.Tokenizer.Tokenize(p.Value)
		if len(toks) == 0 {
			continue
		}
		norm := make([]string, len(toks))
		for i, t := range toks {
			norm[i] = normalize(t.Text)
		}
		key := p.Attr + "\x00" + strings.Join(norm, "\x01")
		if freq[key] == 0 {
			order = append(order, claim{norm: norm, attr: p.Attr})
		}
		freq[key]++
	}
	for _, c := range order {
		key := c.attr + "\x00" + strings.Join(c.norm, "\x01")
		m.byFirst[c.norm[0]] = append(m.byFirst[c.norm[0]], matchEntry{
			tokens: c.norm, attr: c.attr, freq: freq[key],
		})
	}
	for k := range m.byFirst {
		es := m.byFirst[k]
		sort.Slice(es, func(i, j int) bool {
			if len(es[i].tokens) != len(es[j].tokens) {
				return len(es[i].tokens) > len(es[j].tokens)
			}
			if es[i].freq != es[j].freq {
				return es[i].freq > es[j].freq
			}
			if a, b := strings.Join(es[i].tokens, "\x01"), strings.Join(es[j].tokens, "\x01"); a != b {
				return a < b
			}
			return es[i].attr < es[j].attr
		})
	}
	return m
}

// label writes BIO labels for every value occurrence into a fresh label
// slice. allowed, when non-nil, restricts matches to triples present in it
// (keyed by attr+"\x00"+normalised value).
func (m *valueMatcher) label(sent SentenceOf, allowed map[string]bool) []string {
	labels := make([]string, len(sent.Tokens))
	for i := range labels {
		labels[i] = tagger.Outside
	}
	norm := make([]string, len(sent.Tokens))
	for i, t := range sent.Tokens {
		norm[i] = normalize(t.Text)
	}
	for i := 0; i < len(norm); i++ {
		if labels[i] != tagger.Outside {
			continue
		}
		for _, e := range m.byFirst[norm[i]] {
			if i+len(e.tokens) > len(norm) {
				continue
			}
			if allowed != nil && !allowed[e.attr+"\x00"+strings.Join(e.tokens, "")] {
				continue
			}
			ok := true
			for j, vt := range e.tokens {
				if norm[i+j] != vt || (j > 0 && labels[i+j] != tagger.Outside) {
					ok = false
					break
				}
			}
			if ok {
				tagger.Encode(labels, tagger.Span{Attribute: e.attr, Start: i, End: i + len(e.tokens)})
				i += len(e.tokens) - 1
				break
			}
		}
	}
	return labels
}

// LabelSentencesCtx tags every occurrence of a pair's value with its
// attribute. On the seed documents' sentences with the seed pairs it
// produces the initial labeled dataset (Figure 1, line 5); on the corpus
// with the cleaned triples it rebuilds each iteration's training set.
// allowed, when non-nil, restricts labeling per document: it maps a document
// ID to the set of permitted attr+"\x00"+normalisedValue keys for it.
// Sentences fan out over a bounded worker pool into their own output slots,
// so the result is identical for every workers value (zero means one per
// CPU). The context, when non-nil, cancels mid-corpus labeling.
func LabelSentencesCtx(ctx context.Context, sents []SentenceOf, pairs []Candidate, allowed map[string]map[string]bool, cfg Config, workers int) ([]tagger.Sequence, error) {
	cfg = cfg.WithDefaults()
	matcher := newValueMatcher(pairs, cfg)
	out := make([]tagger.Sequence, len(sents))
	err := par.ForEach(ctx, workers, len(sents), func(i int) error {
		sent := sents[i]
		var allowedHere map[string]bool
		if allowed != nil {
			allowedHere = allowed[sent.DocID]
			if allowedHere == nil {
				allowedHere = map[string]bool{}
			}
		}
		out[i] = toSequence(sent, matcher.label(sent, allowedHere))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func toSequence(sent SentenceOf, labels []string) tagger.Sequence {
	tokens := make([]string, len(sent.Tokens))
	posTags := make([]string, len(sent.Tokens))
	for i, t := range sent.Tokens {
		tokens[i] = t.Text
		posTags[i] = string(sent.PoS[i])
	}
	return tagger.Sequence{
		Tokens: tokens, PoS: posTags, Labels: labels,
		SentenceIndex: sent.Index, PageID: sent.DocID,
	}
}
