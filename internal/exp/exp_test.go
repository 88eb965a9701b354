package exp

import (
	"os"
	"strings"
	"sync"
	"testing"
)

// smallSettings keeps the structural tests fast; shape assertions that need
// full scale live in EXPERIMENTS.md, not in the test suite.
var smallSettings = Settings{Seed: 7, Items: 90, Iterations: 2}

func TestByID(t *testing.T) {
	if _, ok := ByID("table1"); !ok {
		t.Fatal("table1 not registered")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}

	// The checked-in `paebench -exp all` run that EXPERIMENTS.md quotes
	// prints its sections in registry order: its "== id:" headers must be
	// registered ids, in the same relative order.
	raw, err := os.ReadFile("../../results/paebench_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, line := range strings.Split(string(raw), "\n") {
		id, ok := strings.CutPrefix(line, "== ")
		if !ok {
			continue
		}
		id, _, _ = strings.Cut(id, ":")
		if !seen[id] {
			t.Fatalf("results/paebench_all.txt section %q is not a registered experiment", id)
		}
		for next < len(Experiments) && Experiments[next].ID != id {
			next++
		}
		if next == len(Experiments) {
			t.Fatalf("results/paebench_all.txt section %q is out of registry order", id)
		}
		next++
	}
}

func TestTableIStructure(t *testing.T) {
	out := TableI(smallSettings)
	for _, cat := range tableCats() {
		if !strings.Contains(out, cat.Name) {
			t.Fatalf("Table I missing category %s:\n%s", cat.Name, out)
		}
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 3+len(tableCats()) {
		t.Fatalf("Table I has %d lines:\n%s", len(lines), out)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &table{title: "T", head: []string{"a", "bbb"}}
	tb.addRow("xx", "y")
	got := tb.String()
	want := "T\na   bbb\n---  ---\nxx  y  \n"
	// Column widths: "a"(1) vs "xx"(2) → 2; "bbb"(3) vs "y" → 3.
	want = "T\na   bbb\n--  ---\nxx  y  \n"
	if got != want {
		t.Fatalf("table rendering:\n%q\nwant\n%q", got, want)
	}
}

func TestRunCategoryMemoizes(t *testing.T) {
	cfg, fp := seedOnlyConfig()
	a := runCategory(tableCats()[0], cfg, smallSettings, fp)
	b := runCategory(tableCats()[0], cfg, smallSettings, fp)
	if a != b {
		t.Fatal("runCategory did not memoize identical runs")
	}
	c := runCategory(tableCats()[0], cfg, Settings{Seed: 8, Items: 90, Iterations: 2}, fp)
	if a == c {
		t.Fatal("different settings must not share cache entries")
	}
	// Workers is excluded from the cache key: a run at a different worker
	// count is byte-identical, so it must reuse the memoised run.
	d := runCategory(tableCats()[0], cfg, Settings{Seed: 7, Items: 90, Iterations: 2, Workers: 3}, fp)
	if a != d {
		t.Fatal("worker count must not split the run cache")
	}
}

// TestRunCategorySingleflight proves concurrent callers of one cache key
// execute the pipeline once and all receive the same run.
func TestRunCategorySingleflight(t *testing.T) {
	cfg, fp := seedOnlyConfig()
	s := Settings{Seed: 31, Items: 60, Iterations: 1}
	const callers = 8
	runs := make([]*categoryRun, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i] = runCategory(tableCats()[1], cfg, s, fp)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if runs[i] != runs[0] {
			t.Fatalf("caller %d got a different run: singleflight broken", i)
		}
	}
}

func TestSeedOnlyRunHasNoIterations(t *testing.T) {
	cfg, fp := seedOnlyConfig()
	r := runCategory(tableCats()[0], cfg, smallSettings, fp)
	if len(r.result.Iterations) != 0 {
		t.Fatal("seed-only run executed bootstrap iterations")
	}
	if len(r.result.SeedTriples) == 0 {
		t.Fatal("seed-only run produced no seed triples")
	}
}

func TestCleanExternallyNeverAddsTriples(t *testing.T) {
	cfg, fp := crfConfig(1, false)
	r := runCategory(tableCats()[0], cfg, smallSettings, fp)
	raw := iterTriples(r, 1)
	cleaned := cleanExternally(r, raw)
	if len(cleaned) > len(raw) {
		t.Fatalf("cleaning added triples: %d -> %d", len(raw), len(cleaned))
	}
	rawPrec := r.truth.Judge(raw).Precision()
	cleanPrec := r.truth.Judge(cleaned).Precision()
	if cleanPrec < rawPrec-3 {
		t.Fatalf("cleaning hurt precision badly: %.2f -> %.2f", rawPrec, cleanPrec)
	}
}

func TestDiversificationExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-iteration experiment")
	}
	out := Diversification(smallSettings)
	if !strings.Contains(out, "with diversification") || !strings.Contains(out, "without diversification") {
		t.Fatalf("missing rows:\n%s", out)
	}
}

func TestHeterogeneousExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-iteration experiment")
	}
	out := Heterogeneous(smallSettings)
	if !strings.Contains(out, "Baby Carriers") || !strings.Contains(out, "Baby Goods") {
		t.Fatalf("missing rows:\n%s", out)
	}
}

func TestCanonOfResolvesRepresentatives(t *testing.T) {
	cfg, fp := seedOnlyConfig()
	r := runCategory(tableCats()[7], cfg, smallSettings, fp) // Vacuum Cleaner
	reps := canonOf(r, "重量")
	if len(reps) == 0 {
		t.Fatal("no representative found for 重量")
	}
	for _, rep := range reps {
		if r.corpus.Canon(rep) != "重量" {
			t.Fatalf("representative %q does not canonicalise to 重量", rep)
		}
	}
}
