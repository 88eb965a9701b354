package exp

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/workload"
)

// titleRun memoises title-workload pipeline runs through the same cache as
// runCategory.
func titleRun(cat gen.Category, s Settings) *categoryRun {
	s = s.withDefaults()
	return memoRun(s.key()+"|"+cat.Name+"|title", func() *categoryRun {
		gc := gen.GenerateTitles(cat, gen.Options{Seed: s.Seed, Items: s.Items, Workers: s.Workers})
		cfg, _ := crfConfig(s.Iterations, true)
		cfg.Workload = workload.Title
		return runCorpus(gc, cfg, s, cat.Name+" (title)")
	})
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
