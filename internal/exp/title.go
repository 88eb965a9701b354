package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/seed"
	"repro/internal/workload"
)

// titleRun memoises title-workload pipeline runs the same way runCategory
// does for detail pages. The title path needs its own runner because it
// feeds the distant-supervision lexicon through Input, which core.Run does
// not carry.
func titleRun(cat gen.Category, s Settings) *categoryRun {
	s = s.withDefaults()
	key := s.key() + "|" + cat.Name + "|title"
	cacheMu.Lock()
	e, ok := runCache[key]
	if !ok {
		e = &cacheEntry{}
		runCache[key] = e
	}
	cacheMu.Unlock()

	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.panicked = r
			}
		}()
		gc := gen.GenerateTitles(cat, gen.Options{Seed: s.Seed, Items: s.Items, Workers: s.Workers})
		docs := make([]seed.Document, len(gc.Pages))
		for i, p := range gc.Pages {
			docs[i] = seed.Document{ID: p.ID, HTML: p.HTML}
		}
		cfg := core.Config{
			Workload:    workload.Title,
			Iterations:  s.Iterations,
			Model:       core.CRF,
			CRF:         crf.Config{MaxIter: 40},
			Parallelism: s.Workers,
		}
		res, err := core.New(cfg).RunSource(context.Background(), core.Input{
			Source:  corpus.NewSliceSource(docs),
			Queries: gc.Queries,
			Lang:    gc.Lang,
			Lexicon: gc.Lexicon,
		})
		if err != nil {
			panic(fmt.Sprintf("exp: %s (title): %v", cat.Name, err))
		}
		e.run = &categoryRun{corpus: gc, truth: eval.NewTruth(gc), result: res}
	})
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.run
}

// TitleWorkload evaluates the title workload (More, arXiv:1608.04670) on the
// Table I categories: product listing titles seeded by distant supervision
// against the generated lexicon — no sentences, no dictionary tables — then
// bootstrapped with the same CRF cycle as the detail-page pipeline. Reported
// precision and coverage are judged against the generator's planted truth.
func TitleWorkload(s Settings) string {
	s = s.withDefaults()
	t := &table{
		title: "Title workload — distant-supervision bootstrap on listing titles",
		head:  []string{"Category", "#Seed", "#Triples", "Prec", "Cov"},
	}
	for _, cat := range tableCats() {
		r := titleRun(cat, s)
		final := r.result.FinalTriples()
		rep := r.truth.Judge(final)
		cov := eval.Coverage(final, r.products())
		t.addRow(cat.Name,
			fmt.Sprintf("%d", len(r.result.SeedTriples)),
			fmt.Sprintf("%d", len(final)),
			pct(rep.Precision()),
			pct(cov),
		)
	}
	return t.String()
}
