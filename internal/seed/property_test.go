package seed

import (
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/tagger"
)

func genCandidates(seed uint64) []Candidate {
	rng := mat.NewRNG(seed)
	attrs := []string{"色", "重量", "素材", "サイズ"}
	values := []string{"レッド", "2kg", "2.5kg", "コットン", "30cm", "青", "ブルー"}
	n := rng.Intn(50)
	out := make([]Candidate, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Candidate{
			Attr:  attrs[rng.Intn(len(attrs))],
			Value: values[rng.Intn(len(values))],
			DocID: string(rune('a' + rng.Intn(12))),
		})
	}
	return out
}

// Property: CleanValues returns a subset of its input, and adding the values
// to the query log can only grow the result (monotonicity in queries).
func TestCleanValuesMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cands := genCandidates(seed)
		base := CleanValues(cands, nil, Config{})
		if len(base) > len(cands) {
			return false
		}
		var queries []string
		for _, c := range cands {
			queries = append(queries, c.Value)
		}
		all := CleanValues(cands, queries, Config{})
		return len(all) >= len(base) && len(all) == len(cands)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Diversify never drops anything from the cleaned set — it only
// adds candidates.
func TestDiversifySupersetProperty(t *testing.T) {
	f := func(seed uint64) bool {
		raw := genCandidates(seed)
		clean := CleanValues(raw, nil, Config{})
		div := Diversify(clean, raw, Config{})
		if len(div) < len(clean) {
			return false
		}
		for i := range clean {
			if div[i] != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AggregateAttributes preserves candidate count and maps every
// attribute onto a representative of its own merge group (idempotent rep).
func TestAggregatePreservesCandidatesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cands := genCandidates(seed)
		merged, rep := AggregateAttributes(cands, Config{})
		if len(merged) != len(cands) {
			return false
		}
		for _, r := range rep {
			if rep[r] != r {
				return false // representative must map to itself
			}
		}
		for i, c := range merged {
			if rep[cands[i].Attr] != c.Attr || c.Value != cands[i].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: labels produced by the training-set generator are always valid
// BIO sequences over the seed attributes and decode to spans whose text is a
// known seed value.
func TestGenerateTrainingSetLabelsValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		values := []string{"レッド", "2kg", "2.5kg", "コットン"}
		attrs := []string{"色", "重量", "素材"}
		var docs []Document
		var cands []Candidate
		for i := 0; i < 3+rng.Intn(4); i++ {
			v := values[rng.Intn(len(values))]
			a := attrs[rng.Intn(len(attrs))]
			id := string(rune('a' + i))
			docs = append(docs, Document{
				ID: id,
				HTML: "<p>" + a + "は" + v + "です。</p><table><tr><th>" + a +
					"</th><td>" + v + "</td></tr><tr><th>x</th><td>y</td></tr></table>",
			})
			cands = append(cands, Candidate{Attr: a, Value: v, DocID: id})
		}
		known := make(map[string]bool)
		for _, c := range cands {
			known[normalize(c.Value)] = true
		}
		for _, s := range trainingSet(t, docs, cands, Config{}) {
			if len(s.Labels) != len(s.Tokens) {
				return false
			}
			for _, sp := range tagger.Spans(s.Labels) {
				if !known[normalize(tagger.SpanText(s.Tokens, sp))] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
