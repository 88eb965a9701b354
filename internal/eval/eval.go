// Package eval reimplements the paper's evaluation protocol (§VI-B/C)
// against the generator's planted truth: precision over the judged truth
// sample with the paper's three-way correct / incorrect / maybe_incorrect
// split, the product-level coverage metric, and the per-attribute breakdowns
// of §VIII-C/D.
package eval

import (
	"repro/internal/gen"
	"repro/internal/seed"
	"repro/internal/triples"
)

// Report aggregates the paper's precision counters for one batch of system
// triples.
type Report struct {
	// Correct, Incorrect and MaybeIncorrect follow §VI-C exactly: a system
	// triple is correct/incorrect when it occurs in the truth sample with
	// that judgment; it is maybe-incorrect when product and attribute match
	// a correct truth triple but the value disagrees (assumed wrong).
	Correct        int
	Incorrect      int
	MaybeIncorrect int
	// Unjudged triples fall outside the truth sample and, as in the paper,
	// outside the precision denominator.
	Unjudged int
	// Generated is the total number of system triples evaluated.
	Generated int
}

// Precision returns correct / (correct + incorrect + maybe_incorrect), or 0
// when nothing was judged. Reported in percent to match the paper's tables.
func (r Report) Precision() float64 {
	den := r.Correct + r.Incorrect + r.MaybeIncorrect
	if den == 0 {
		return 0
	}
	return 100 * float64(r.Correct) / float64(den)
}

// Truth is the referee: the planted truth sample plus the generator's alias
// table.
type Truth struct {
	corpus    *gen.Corpus
	correct   map[string]bool
	incorrect map[string]bool
	prodAttr  map[string]bool // pid\x00attr with at least one correct triple
}

// NewTruth indexes a corpus's planted truth triples.
func NewTruth(c *gen.Corpus) *Truth {
	t := &Truth{
		corpus:    c,
		correct:   make(map[string]bool),
		incorrect: make(map[string]bool),
		prodAttr:  make(map[string]bool),
	}
	for _, tr := range c.Truth {
		key := tr.ProductID + "\x00" + tr.Attribute + "\x00" + tr.Value
		if tr.Correct {
			t.correct[key] = true
			t.prodAttr[tr.ProductID+"\x00"+tr.Attribute] = true
		} else {
			t.incorrect[key] = true
		}
	}
	return t
}

// Size returns the number of judged truth triples.
func (t *Truth) Size() int { return len(t.correct) + len(t.incorrect) }

// Judgment classifies a single system triple.
type Judgment int

// Judgment values.
const (
	Unjudged Judgment = iota
	Correct
	Incorrect
	MaybeIncorrect
)

// String returns the judgment name.
func (j Judgment) String() string {
	switch j {
	case Correct:
		return "correct"
	case Incorrect:
		return "incorrect"
	case MaybeIncorrect:
		return "maybe_incorrect"
	}
	return "unjudged"
}

// JudgeTriple classifies one system triple, exposed for error-analysis
// tooling.
func (t *Truth) JudgeTriple(tr triples.Triple) Judgment {
	attr := t.corpus.Canon(tr.Attribute)
	key := tr.ProductID + "\x00" + attr + "\x00" + gen.NormalizeValue(tr.Value)
	switch {
	case t.correct[key]:
		return Correct
	case t.incorrect[key]:
		return Incorrect
	case t.prodAttr[tr.ProductID+"\x00"+attr]:
		return MaybeIncorrect
	}
	return Unjudged
}

// add tallies one judged triple.
func (r *Report) add(j Judgment) {
	r.Generated++
	switch j {
	case Correct:
		r.Correct++
	case Incorrect:
		r.Incorrect++
	case MaybeIncorrect:
		r.MaybeIncorrect++
	default:
		r.Unjudged++
	}
}

// Judge evaluates a batch of system triples against the truth sample.
func (t *Truth) Judge(ts []triples.Triple) Report {
	var r Report
	for _, tr := range triples.Dedup(ts) {
		r.add(t.JudgeTriple(tr))
	}
	return r
}

// JudgeByAttribute returns one report per canonical attribute, the §VIII-C
// per-attribute precision view.
func (t *Truth) JudgeByAttribute(ts []triples.Triple) map[string]Report {
	out := make(map[string]Report)
	for _, tr := range triples.Dedup(ts) {
		attr := t.corpus.Canon(tr.Attribute)
		r := out[attr]
		r.add(t.JudgeTriple(tr))
		out[attr] = r
	}
	return out
}

// PairReport holds the Table-I "Precision Pairs" judgment: whether each
// distinct <attribute, value> association is valid for the category.
type PairReport struct {
	Valid, Invalid int
}

// Precision returns the percentage of valid pairs.
func (r PairReport) Precision() float64 {
	if r.Valid+r.Invalid == 0 {
		return 0
	}
	return 100 * float64(r.Valid) / float64(r.Valid+r.Invalid)
}

// JudgePairs checks distinct attribute/value associations against the
// category's rendered value domains.
func (t *Truth) JudgePairs(pairs []seed.Candidate) PairReport {
	var r PairReport
	seen := make(map[string]bool)
	for _, p := range pairs {
		attr := t.corpus.Canon(p.Attr)
		val := gen.NormalizeValue(p.Value)
		k := attr + "\x00" + val
		if seen[k] {
			continue
		}
		seen[k] = true
		if t.corpus.Domains[attr][val] {
			r.Valid++
		} else {
			r.Invalid++
		}
	}
	return r
}

// Recall returns the percentage of correct truth triples that the system
// recovered. The paper explicitly cannot measure recall — its truth sample
// is built from system output, so unextracted facts are invisible — but the
// synthetic referee knows every planted statement, which makes this the
// reproduction's bonus metric: it quantifies how much the paper's "coverage"
// proxy under- or over-states true recall.
func (t *Truth) Recall(ts []triples.Triple) float64 {
	if len(t.correct) == 0 {
		return 0
	}
	found := make(map[string]bool)
	for _, tr := range ts {
		attr := t.corpus.Canon(tr.Attribute)
		key := tr.ProductID + "\x00" + attr + "\x00" + gen.NormalizeValue(tr.Value)
		if t.correct[key] {
			found[key] = true
		}
	}
	return 100 * float64(len(found)) / float64(len(t.correct))
}

// Coverage is the paper's product-level coverage: the fraction (percent) of
// products in the input dataset for which at least one triple was produced.
func Coverage(ts []triples.Triple, totalProducts int) float64 {
	if totalProducts == 0 {
		return 0
	}
	return 100 * float64(triples.Products(ts)) / float64(totalProducts)
}

// AttributeCoverage returns, per canonical attribute, the percentage of
// products carrying a triple for that attribute — the metric of Figures 7
// and 8.
func (t *Truth) AttributeCoverage(ts []triples.Triple, totalProducts int) map[string]float64 {
	prods := make(map[string]map[string]bool)
	for _, tr := range ts {
		attr := t.corpus.Canon(tr.Attribute)
		if prods[attr] == nil {
			prods[attr] = make(map[string]bool)
		}
		prods[attr][tr.ProductID] = true
	}
	out := make(map[string]float64, len(prods))
	for attr, ps := range prods {
		if totalProducts > 0 {
			out[attr] = 100 * float64(len(ps)) / float64(totalProducts)
		}
	}
	return out
}
