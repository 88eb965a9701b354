package cleaning

import (
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/triples"
	"repro/internal/word2vec"
	"repro/internal/workload"
)

func tr(pid, attr, val string) triples.Triple {
	return triples.Triple{ProductID: pid, Attribute: attr, Value: val}
}

func TestVetoSymbols(t *testing.T) {
	in := []triples.Triple{
		tr("p1", "色", ";"),
		tr("p2", "色", "*"),
		tr("p3", "色", "・・・"),
		tr("p4", "色", "レッド"),
	}
	out, stats := ApplyVetoFor(workload.DetailPage, in, VetoConfig{PopularFraction: 1})
	if stats.Symbol != 3 {
		t.Fatalf("symbol removals = %d, want 3", stats.Symbol)
	}
	if len(out) != 1 || out[0].Value != "レッド" {
		t.Fatalf("out = %v", out)
	}
}

func TestVetoMarkup(t *testing.T) {
	in := []triples.Triple{
		tr("p1", "a", "<br>"),
		tr("p2", "a", "&nbsp;"),
		tr("p3", "a", "normal"),
	}
	out, stats := ApplyVetoFor(workload.DetailPage, in, VetoConfig{PopularFraction: 1})
	if stats.Markup != 2 || len(out) != 1 {
		t.Fatalf("markup removals = %d, out = %v", stats.Markup, out)
	}
}

func TestVetoLongValues(t *testing.T) {
	long := strings.Repeat("長", 31)
	in := []triples.Triple{tr("p1", "a", long), tr("p2", "a", "短い値")}
	out, stats := ApplyVetoFor(workload.DetailPage, in, VetoConfig{PopularFraction: 1})
	if stats.TooLong != 1 || len(out) != 1 {
		t.Fatalf("long removals = %d, out = %v", stats.TooLong, out)
	}
	// Exactly 30 runes passes.
	in = []triples.Triple{tr("p1", "a", strings.Repeat("x", 30))}
	if _, stats := ApplyVetoFor(workload.DetailPage, in, VetoConfig{PopularFraction: 1}); stats.TooLong != 0 {
		t.Fatal("30-rune value wrongly vetoed")
	}
}

func TestVetoUnpopularEntities(t *testing.T) {
	var in []triples.Triple
	// "popular" tags 8 items, "rare" tags 1: with an 80% budget the rare
	// entity must fall off.
	for i := 0; i < 8; i++ {
		in = append(in, tr(string(rune('a'+i)), "色", "popular"))
	}
	in = append(in, tr("z", "色", "rare"))
	out, stats := ApplyVetoFor(workload.DetailPage, in, VetoConfig{})
	if stats.Unpopular != 1 {
		t.Fatalf("unpopular removals = %d, want 1", stats.Unpopular)
	}
	for _, o := range out {
		if o.Value == "rare" {
			t.Fatal("rare entity survived")
		}
	}
}

func TestVetoKeepsAllWhenUniform(t *testing.T) {
	in := []triples.Triple{
		tr("p1", "a", "v1"), tr("p2", "a", "v2"),
	}
	// Two entities with one item each: the 80% budget admits the first;
	// the second exceeds it. This mirrors the paper's behaviour of always
	// trimming the tail.
	out, _ := ApplyVetoFor(workload.DetailPage, in, VetoConfig{PopularFraction: 1})
	if len(out) != 2 {
		t.Fatalf("PopularFraction=1 must keep everything, got %v", out)
	}
}

func TestVetoEmpty(t *testing.T) {
	out, stats := ApplyVetoFor(workload.DetailPage, nil, VetoConfig{})
	if len(out) != 0 || stats.Removed() != 0 {
		t.Fatal("empty input should be a no-op")
	}
}

// driftCorpus builds sentences where color values co-occur with color
// contexts and one drifted word appears in disjoint contexts.
func driftCorpus() [][]string {
	colors := []string{"red", "blue", "green", "pink"}
	rng := mat.NewRNG(5)
	var sents [][]string
	for i := 0; i < 300; i++ {
		c1 := colors[rng.Intn(len(colors))]
		c2 := colors[rng.Intn(len(colors))]
		sents = append(sents, []string{"color", "is", c1, "and", c2, "shade"})
	}
	for i := 0; i < 60; i++ {
		sents = append(sents, []string{"shipping", "box", "driftword", "warehouse", "driftword", "pallet"})
	}
	return sents
}

// semanticClean runs SemanticCleanStream over an in-memory corpus.
func semanticClean(t *testing.T, ts []triples.Triple, sentences [][]string, cfg SemanticConfig) ([]triples.Triple, int) {
	t.Helper()
	out, removed, err := SemanticCleanStream(ts, func(yield func([]string) error) error {
		for _, s := range sentences {
			if err := yield(s); err != nil {
				return err
			}
		}
		return nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out, removed
}

func TestSemanticCleanRemovesDriftedValue(t *testing.T) {
	ts := []triples.Triple{
		tr("p1", "color", "red"), tr("p2", "color", "blue"),
		tr("p3", "color", "green"), tr("p4", "color", "pink"),
		tr("p5", "color", "driftword"),
	}
	// Subsampling is disabled: the toy corpus is tiny and value-dense, so
	// the frequency threshold would starve the very words under test.
	out, removed := semanticClean(t, ts, driftCorpus(), SemanticConfig{
		Embedding: word2vec.Config{Dim: 16, Epochs: 8, MinCount: 2, Seed: 2, Subsample: -1},
	})
	if removed == 0 {
		t.Fatal("drifted value not removed")
	}
	for _, o := range out {
		if o.Value == "driftword" {
			t.Fatal("driftword survived semantic cleaning")
		}
	}
	// Core colors survive.
	var colorCount int
	for _, o := range out {
		if o.Attribute == "color" {
			colorCount++
		}
	}
	if colorCount < 3 {
		t.Fatalf("too many in-core values removed: %v", out)
	}
}

func TestSemanticCleanKeepsSmallGroupsUntouched(t *testing.T) {
	ts := []triples.Triple{tr("p1", "a", "x"), tr("p2", "a", "y")}
	out, removed := semanticClean(t, ts, [][]string{{"x", "y"}}, SemanticConfig{})
	if removed != 0 || len(out) != 2 {
		t.Fatal("groups with <3 embedded values must not be filtered")
	}
}

func TestSemanticCleanEmptyInput(t *testing.T) {
	out, removed := semanticClean(t, nil, nil, SemanticConfig{})
	if out != nil && len(out) != 0 || removed != 0 {
		t.Fatal("empty input should be a no-op")
	}
}

func TestSemanticCoreSizeRestriction(t *testing.T) {
	vecs := map[string][]float64{
		"a": {1, 0}, "b": {0.9, 0.1}, "c": {0.8, 0.2}, "outlier": {-1, 0},
	}
	values := []string{"a", "b", "c", "outlier"}
	core := semanticCore(values, vecs, 3)
	if len(core) != 3 {
		t.Fatalf("core size = %d, want 3", len(core))
	}
	for _, c := range core {
		if c == "outlier" {
			t.Fatal("outlier kept in core")
		}
	}
	// Unrestricted keeps everything embeddable.
	if got := semanticCore(values, vecs, 0); len(got) != 4 {
		t.Fatalf("unrestricted core = %v", got)
	}
}

func TestGroupValuesMultiword(t *testing.T) {
	sents := [][]string{{"重量", "は", "2", ".", "5", "kg", "です"}}
	ts := []triples.Triple{tr("p1", "重量", "2.5kg")}
	tokenize := func(s string) []string {
		// Simulate the JA tokenizer on this value.
		if s == "2.5kg" {
			return []string{"2", ".", "5", "kg"}
		}
		return strings.Fields(s)
	}
	g := newValueGrouper(ts, tokenize)
	grouped := [][]string{g.group(sents[0])}
	joined := strings.Join(grouped[0], " ")
	if !strings.Contains(joined, "2␣.␣5␣kg") {
		t.Fatalf("multiword value not grouped: %v", grouped[0])
	}
	if len(grouped[0]) != 4 { // 重量 は <value> です
		t.Fatalf("grouped sentence = %v", grouped[0])
	}
}
