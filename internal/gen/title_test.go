package gen

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/seed"
	"repro/internal/workload"
)

func titleCat(t *testing.T) Category {
	t.Helper()
	cat, ok := CategoryByName("Vacuum Cleaner")
	if !ok {
		t.Fatal("Vacuum Cleaner category missing")
	}
	return cat
}

func TestGenerateTitlesDeterministicAcrossWorkers(t *testing.T) {
	cat := titleCat(t)
	base := GenerateTitles(cat, Options{Items: 70, Seed: 3, Workers: 1})
	for _, workers := range []int{2, 8} {
		c := GenerateTitles(cat, Options{Items: 70, Seed: 3, Workers: workers})
		if !reflect.DeepEqual(base.Pages, c.Pages) {
			t.Fatalf("pages differ between workers=1 and workers=%d", workers)
		}
		if !reflect.DeepEqual(base.Truth, c.Truth) {
			t.Fatalf("truth differs between workers=1 and workers=%d", workers)
		}
		if !reflect.DeepEqual(base.Lexicon, c.Lexicon) {
			t.Fatalf("lexicon differs between workers=1 and workers=%d", workers)
		}
		if !reflect.DeepEqual(base.Queries, c.Queries) {
			t.Fatalf("queries differ between workers=1 and workers=%d", workers)
		}
	}
}

func TestGenerateTitlesStreamMatchesMaterialized(t *testing.T) {
	cat := titleCat(t)
	base := GenerateTitles(cat, Options{Items: 40, Seed: 5})
	var pages []seed.Document
	c, err := GenerateTitlesStreamCtx(context.Background(), cat, Options{Items: 40, Seed: 5},
		func(p PageResult) error { pages = append(pages, p.Page); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Pages, pages) {
		t.Fatal("streamed pages differ from materialized pages")
	}
	if !reflect.DeepEqual(base.Truth, c.Truth) || !reflect.DeepEqual(base.Lexicon, c.Lexicon) {
		t.Fatal("streamed metadata differs from materialized metadata")
	}
}

func TestGenerateTitlesShape(t *testing.T) {
	cat := titleCat(t)
	c := GenerateTitles(cat, Options{Items: 60, Seed: 2})
	if c.Workload != workload.Title {
		t.Fatalf("corpus workload = %q, want title", c.Workload)
	}
	if len(c.Pages) != 60 {
		t.Fatalf("pages = %d, want 60", len(c.Pages))
	}
	if len(c.Lexicon) == 0 {
		t.Fatal("title corpus has no lexicon: distant supervision has nothing to match")
	}
	for _, p := range c.Pages {
		if strings.ContainsAny(p.HTML, "<>") {
			t.Fatalf("title %s contains markup: %q", p.ID, p.HTML)
		}
		if !strings.Contains(p.HTML, cat.Noun) {
			t.Fatalf("title %s lacks the category noun: %q", p.ID, p.HTML)
		}
	}
}

func TestGenerateTitlesTruthJudgments(t *testing.T) {
	c := GenerateTitles(titleCat(t), Options{Items: 200, Seed: 7})
	byID := make(map[string]string, len(c.Pages))
	for _, p := range c.Pages {
		// Truth values are normalized by the referee; compare in that space.
		byID[p.ID] = NormalizeValue(p.HTML)
	}
	correct, incorrect := 0, 0
	for _, tr := range c.Truth {
		if tr.Correct {
			correct++
			if !strings.Contains(byID[tr.ProductID], tr.Value) {
				t.Fatalf("correct truth %+v not on title %q", tr, byID[tr.ProductID])
			}
		} else {
			incorrect++
		}
	}
	if correct == 0 || incorrect == 0 {
		t.Fatalf("truth sample needs both judgments: correct=%d incorrect=%d", correct, incorrect)
	}
}

func TestGenerateTitlesLexiconValuesExist(t *testing.T) {
	cat := titleCat(t)
	c := GenerateTitles(cat, Options{Items: 10, Seed: 4})
	attrs := make(map[string]bool, len(cat.Attributes))
	for _, a := range cat.Attributes {
		attrs[a.Name] = true
	}
	perAttr := make(map[string]int)
	for _, e := range c.Lexicon {
		if !attrs[e.Attr] {
			t.Fatalf("lexicon names unknown attribute %q", e.Attr)
		}
		if e.Value == "" {
			t.Fatalf("empty lexicon value for %q", e.Attr)
		}
		perAttr[e.Attr]++
	}
	for _, a := range cat.Attributes {
		if perAttr[a.Name] == 0 {
			t.Fatalf("attribute %q has no lexicon entries", a.Name)
		}
	}
}

func TestGenerateTitlesDiffersFromDetailPages(t *testing.T) {
	// Same category, same seed: the two workloads must not replay each
	// other's draw sequence, or a mixed experiment silently correlates.
	cat := titleCat(t)
	dp := Generate(cat, Options{Items: 20, Seed: 9})
	ti := GenerateTitles(cat, Options{Items: 20, Seed: 9})
	if dp.Pages[0].HTML == ti.Pages[0].HTML {
		t.Fatal("title corpus replays the detail-page draw sequence")
	}
	if dp.Workload.WithDefault() != workload.DetailPage {
		t.Fatalf("detail-page corpus workload = %q", dp.Workload)
	}
}
