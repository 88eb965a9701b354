package exp

import (
	"repro/internal/crf"
	"repro/internal/eval"
)

// FeatureAblation quantifies the design choices DESIGN.md calls out for the
// CRF: the context-window radius of the paper's feature templates and the
// elastic-net regularisation, measured after one bootstrap iteration on a
// clean and a noisy category.
func FeatureAblation(s Settings) string {
	s = s.withDefaults()
	t := &table{
		title: "extension — CRF design-choice ablation (iteration 1, with cleaning)",
		head:  []string{"Category", "Config", "Precision", "Coverage"},
	}
	configs := []struct {
		name string
		crf  crf.Config
	}{
		{"window=2 L1+L2 (paper)", crf.Config{MaxIter: 40}},
		{"window=1", crf.Config{MaxIter: 40, Feature: crf.FeatureConfig{Window: 1}}},
		{"window=3", crf.Config{MaxIter: 40, Feature: crf.FeatureConfig{Window: 3}}},
		{"L2 only", crf.Config{MaxIter: 40, L1: -1}},
		{"no regularisation", crf.Config{MaxIter: 40, L1: -1, L2: 1e-6}},
	}
	for _, cn := range []string{"Ladies Bags", "Garden"} {
		cat := mustCat(cn)
		for _, c := range configs {
			cfg, fp := crfConfig(1, true)
			cfg.CRF = c.crf
			r := runCategory(cat, cfg, s, fp+"/feat="+c.name)
			ts := iterTriples(r, 1)
			t.addRow(cn, c.name,
				pct(r.truth.Judge(ts).Precision()),
				pct(eval.Coverage(ts, r.products())))
		}
	}
	return t.String()
}
