package cleaning

import (
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/triples"
	"repro/internal/workload"
)

// genTriples builds a pseudo-random triple batch from a seed.
func genTriples(seed uint64) []triples.Triple {
	rng := mat.NewRNG(seed)
	attrs := []string{"色", "重量", "素材"}
	values := []string{"レッド", "2kg", ";", "<br>", "コットン", "青", "*", "&nbsp;", "1.5kg"}
	n := rng.Intn(40)
	out := make([]triples.Triple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, triples.Triple{
			ProductID: string(rune('a' + rng.Intn(20))),
			Attribute: attrs[rng.Intn(len(attrs))],
			Value:     values[rng.Intn(len(values))],
		})
	}
	return out
}

// Property: ApplyVetoFor is deterministic, and the per-triple rules (symbol,
// markup, length) are idempotent — a second pass removes only popularity
// tail, never new symbol/markup/length victims. (The popularity rule itself
// is a one-shot batch operation, as in the paper, and is not idempotent:
// re-running it re-computes the 80% budget over the reduced totals.)
func TestVetoDeterministicProperty(t *testing.T) {
	f := func(seed uint64) bool {
		in := genTriples(seed)
		a, sa := ApplyVetoFor(workload.DetailPage, in, VetoConfig{})
		b, sb := ApplyVetoFor(workload.DetailPage, in, VetoConfig{})
		if len(a) != len(b) || sa != sb {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		_, stats := ApplyVetoFor(workload.DetailPage, a, VetoConfig{})
		return stats.Symbol == 0 && stats.Markup == 0 && stats.TooLong == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: ApplyVetoFor returns a subset of its input (never invents triples)
// and the removal counts are consistent.
func TestVetoSubsetProperty(t *testing.T) {
	f := func(seed uint64) bool {
		in := genTriples(seed)
		out, stats := ApplyVetoFor(workload.DetailPage, in, VetoConfig{})
		if len(out)+stats.Removed() != len(in) {
			return false
		}
		inSet := make(map[triples.Triple]int)
		for _, tr := range in {
			inSet[tr]++
		}
		for _, tr := range out {
			inSet[tr]--
			if inSet[tr] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: with PopularFraction 1 and benign values, veto keeps everything.
func TestVetoKeepsBenignProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		benign := []string{"レッド", "2kg", "コットン", "1.5kg"}
		var in []triples.Triple
		for i := 0; i < 10+rng.Intn(20); i++ {
			in = append(in, triples.Triple{
				ProductID: string(rune('a' + rng.Intn(10))),
				Attribute: "a",
				Value:     benign[rng.Intn(len(benign))],
			})
		}
		out, _ := ApplyVetoFor(workload.DetailPage, in, VetoConfig{PopularFraction: 1})
		return len(out) == len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SemanticCleanStream output is always a subset of its input.
func TestSemanticCleanSubsetProperty(t *testing.T) {
	sentences := driftCorpus()
	f := func(seed uint64) bool {
		in := genTriples(seed)
		out, removed := semanticClean(t, in, sentences, SemanticConfig{})
		return len(out)+removed == len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
