package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/triples"
)

func categoryByName(name string) (gen.Category, bool) { return gen.CategoryByName(name) }

// German regenerates the §VII German results: precision, coverage and
// triple counts for mailbox, coffee machines and garden.
func German(s Settings) string {
	s = s.withDefaults()
	t := &table{
		title: "§VII — German categories (CRF + cleaning, full bootstrap)",
		head:  []string{"Category", "Precision", "Coverage", "#Triples"},
	}
	cfg, fp := crfConfig(s.Iterations, true)
	for _, cat := range gen.GermanCategories() {
		r := runCategory(cat, cfg, s, fp)
		ts := r.result.FinalTriples()
		t.addRow(cat.Name,
			pct(r.truth.Judge(ts).Precision()),
			pct(eval.Coverage(ts, r.products())),
			fmt.Sprintf("%d", len(ts)))
	}
	return t.String()
}

// ComplexAttributes regenerates §VIII-C: per-attribute precision and
// coverage of the complex attributes — shutter speed (A1), effective pixels
// (A2) and weight (A3) for cameras; type (B1), container type (B2) and
// power-supply type (B3) for vacuums — under the full global system.
func ComplexAttributes(s Settings) string {
	s = s.withDefaults()
	cfg, fp := crfConfig(s.Iterations, true)
	var out string
	for _, spec := range []struct {
		cat   string
		attrs []string
		ids   []string
	}{
		{"Digital Cameras", []string{"シャッタースピード", "有効画素数", "重量"}, []string{"A1", "A2", "A3"}},
		{"Vacuum Cleaner", []string{"タイプ", "集じん方式", "電源方式"}, []string{"B1", "B2", "B3"}},
	} {
		cat, _ := categoryByName(spec.cat)
		r := runCategory(cat, cfg, s, fp)
		ts := r.result.FinalTriples()
		prec := r.truth.JudgeByAttribute(ts)
		cov := r.truth.AttributeCoverage(ts, r.products())
		t := &table{
			title: "§VIII-C — complex attributes, " + spec.cat,
			head:  []string{"ID", "Attribute", "Precision", "Coverage"},
		}
		for i, a := range spec.attrs {
			t.addRow(spec.ids[i], a, pct(prec[a].Precision()), pct(cov[a]))
		}
		out += t.String() + "\n"
	}
	return out
}

// SemanticCoreSweep regenerates the §VIII-B parameter exploration: the
// precision after the first cleaned iteration for different semantic-core
// sizes n, on the categories where the paper saw the largest (≈1%) effect.
func SemanticCoreSweep(s Settings) string {
	s = s.withDefaults()
	sizes := []int{5, 10, 20, 0} // 0 = unrestricted
	t := &table{
		title: "§VIII-B — semantic-core size n vs precision (CRF, first iteration)",
		head:  []string{"Category", "n=5", "n=10", "n=20", "unrestricted"},
	}
	for _, cn := range []string{"Garden", "Shoes"} {
		cat, _ := categoryByName(cn)
		row := []string{cn}
		for _, n := range sizes {
			cfg, fp := crfConfig(1, true)
			cfg.Semantic.CoreSize = n
			r := runCategory(cat, cfg, s, fmt.Sprintf("%s/core=%d", fp, n))
			row = append(row, pct(r.truth.Judge(iterTriples(r, 1)).Precision()))
		}
		t.addRow(row...)
	}
	return t.String()
}

// Heterogeneous regenerates §VIII-E: the homogeneous Baby Carriers category
// against the heterogeneous Baby Goods parent (carriers + clothes + toys).
func Heterogeneous(s Settings) string {
	s = s.withDefaults()
	cfg, fp := crfConfig(s.Iterations, true)

	carriers := runCategory(mustCat("Baby Carriers"), cfg, s, fp)
	cTs := carriers.result.FinalTriples()

	merged := runMerged(s, cfg, fp)
	mTs := merged.result.FinalTriples()

	t := &table{
		title: "§VIII-E — homogeneity of the category (CRF + cleaning)",
		head:  []string{"Category", "Precision", "Coverage"},
	}
	t.addRow("Baby Carriers (homogeneous)",
		pct(carriers.truth.Judge(cTs).Precision()),
		pct(eval.Coverage(cTs, carriers.products())))
	t.addRow("Baby Goods (heterogeneous)",
		pct(merged.truth.Judge(mTs).Precision()),
		pct(eval.Coverage(mTs, merged.products())))
	return t.String()
}

// runMerged builds and runs the heterogeneous Baby Goods parent through the
// same cache as the per-category runs.
func runMerged(s Settings, cfg core.Config, fp string) *categoryRun {
	s = s.withDefaults()
	return memoRun(s.key()+"|Baby Goods|"+fp, func() *categoryRun {
		// Each subcategory contributes a third of the items so the parent has
		// the same page count as a single category.
		opt := gen.Options{Seed: s.Seed, Items: s.Items / 3, Workers: s.Workers}
		gc := gen.Merge("Baby Goods",
			gen.Generate(mustCat("Baby Carriers"), opt),
			gen.Generate(mustCat("Baby Clothes"), opt),
			gen.Generate(mustCat("Toys"), opt))
		return runCorpus(gc, cfg, s, "Baby Goods")
	})
}

func mustCat(name string) gen.Category {
	c, ok := categoryByName(name)
	if !ok {
		panic("unknown category " + name)
	}
	return c
}

// Diversification regenerates §VIII-A: the effect of the value-
// diversification module on Vacuum Cleaner — overall precision, the weight
// attribute's coverage, and the number of distinct weight values found.
func Diversification(s Settings) string {
	s = s.withDefaults()
	cat := mustCat("Vacuum Cleaner")
	t := &table{
		title: "§VIII-A — value diversification on Vacuum Cleaner (CRF + cleaning)",
		head:  []string{"Config", "Precision", "Weight coverage", "Distinct weight values"},
	}
	for _, div := range []bool{true, false} {
		cfg, fp := crfConfig(s.Iterations, true)
		name := "with diversification"
		if !div {
			cfg.DisableDiversification = true
			fp += "/abl=CRF -div" // shares the Table IV cache entry
			name = "without diversification"
		}
		r := runCategory(cat, cfg, s, fp)
		ts := r.result.FinalTriples()
		var weightTriples []triples.Triple
		for _, tr := range ts {
			if r.corpus.Canon(tr.Attribute) == "重量" {
				weightTriples = append(weightTriples, tr)
			}
		}
		t.addRow(name,
			pct(r.truth.Judge(ts).Precision()),
			pct(eval.Coverage(weightTriples, r.products())),
			fmt.Sprintf("%d", triples.DistinctValues(weightTriples)))
	}
	return t.String()
}
