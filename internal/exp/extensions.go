package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/homogenize"
	"repro/internal/tagger"
	"repro/internal/triples"
)

// The experiments below go beyond the paper's published tables: they
// implement and quantify the extensions its conclusion (§IX) and error
// analysis (§VIII) propose — model combination, attribute partitioning,
// value homogenisation, human-in-the-loop correction — plus a true-recall
// audit that only the synthetic referee makes possible. They are registered
// in Experiments, after the paper artifacts.

// EnsembleCombination compares the single models with their intersection
// and union ensembles after one bootstrap iteration, on a clean and a noisy
// category.
func EnsembleCombination(s Settings) string {
	s = s.withDefaults()
	t := &table{
		title: "§IX — model combination after iteration 1 (no cleaning, isolating the combination effect)",
		head:  []string{"Category", "Config", "Precision", "Coverage"},
	}
	for _, cn := range []string{"Ladies Bags", "Garden"} {
		cat := mustCat(cn)
		run := func(name string, cfg core.Config, fp string) {
			r := runCategory(cat, cfg, s, fp)
			ts := iterTriples(r, 1)
			t.addRow(cn, name,
				pct(r.truth.Judge(ts).Precision()),
				pct(eval.Coverage(ts, r.products())))
		}
		crfCfg, crfFp := crfConfig(1, false)
		run("CRF", crfCfg, crfFp)
		rnnCfg, rnnFp := rnnConfig(1, 2, false)
		run("RNN", rnnCfg, rnnFp)
		for _, mode := range []tagger.EnsembleMode{tagger.Intersection, tagger.Union} {
			cfg, fp := crfConfig(1, false)
			m := mode
			cfg.Combine = &m
			run("CRF∩∪RNN "+mode.String(), cfg, fp+"/combine="+mode.String())
		}
	}
	return t.String()
}

// ConfidenceSweep measures the precision/coverage trade-off of the
// MinConfidence knob on the CRF.
func ConfidenceSweep(s Settings) string {
	s = s.withDefaults()
	t := &table{
		title: "extension — CRF span-confidence threshold sweep (iteration 1, no cleaning)",
		head:  []string{"MinConfidence", "Precision", "Coverage", "Triples"},
	}
	cat := mustCat("Vacuum Cleaner")
	for _, th := range []float64{0, 0.5, 0.7, 0.9, 0.97} {
		cfg, fp := crfConfig(1, false)
		cfg.MinConfidence = th
		r := runCategory(cat, cfg, s, fmt.Sprintf("%s/conf=%.2f", fp, th))
		ts := iterTriples(r, 1)
		t.addRow(fmt.Sprintf("%.2f", th),
			pct(r.truth.Judge(ts).Precision()),
			pct(eval.Coverage(ts, r.products())),
			fmt.Sprintf("%d", len(ts)))
	}
	return t.String()
}

// RecallAudit reports, per category, the paper's coverage proxy next to the
// true recall the planted truth permits.
func RecallAudit(s Settings) string {
	s = s.withDefaults()
	t := &table{
		title: "extension — coverage proxy vs true recall (CRF + cleaning, full bootstrap)",
		head:  []string{"Category", "Coverage", "True recall", "Precision"},
	}
	cfg, fp := crfConfig(s.Iterations, true)
	for _, cat := range tableCats() {
		r := runCategory(cat, cfg, s, fp)
		ts := r.result.FinalTriples()
		t.addRow(cat.Name,
			pct(eval.Coverage(ts, r.products())),
			pct(r.truth.Recall(ts)),
			pct(r.truth.Judge(ts).Precision()))
	}
	return t.String()
}

// Homogenization clusters each category's extracted values and reports the
// catalog-size reduction. It measures the raw (uncleaned) extraction, where
// merchant spelling variants (2.5kg / 2.5キロ / ２.５ｋｇ) are still
// present — the popularity veto would otherwise have pruned exactly the
// rare variants homogenisation is for.
func Homogenization(s Settings) string {
	s = s.withDefaults()
	t := &table{
		title: "§IX — value homogenisation of the raw extracted triples (iteration 1)",
		head:  []string{"Category", "Distinct values", "After clustering", "Reduction"},
	}
	cfg, fp := crfConfig(1, false)
	for _, cn := range []string{"Vacuum Cleaner", "Digital Cameras", "Garden"} {
		cat := mustCat(cn)
		r := runCategory(cat, cfg, s, fp)
		ts := iterTriples(r, 1)
		var values []string
		for _, tr := range ts {
			values = append(values, tr.Value)
		}
		clusters := homogenize.Cluster(values, r.corpus.Lang)
		reps := make(map[string]bool)
		for _, rep := range clusters {
			reps[rep] = true
		}
		before := triples.DistinctValues(ts)
		after := len(reps)
		t.addRow(cn, fmt.Sprintf("%d", before), fmt.Sprintf("%d", after),
			fmt.Sprintf("%.1f%%", 100*(1-float64(after)/float64(max(before, 1)))))
	}
	return t.String()
}

// PartitionOptimization runs the §VIII-D greedy partition search on the
// Vacuum Cleaner attributes, scoring each candidate group by the summed
// precision×coverage of its attributes under a specialised model.
func PartitionOptimization(s Settings) string {
	s = s.withDefaults()
	cat := mustCat("Vacuum Cleaner")
	globalCfg, globalFp := crfConfig(1, true)
	global := runCategory(cat, globalCfg, s, globalFp)
	attrs := global.result.Attributes

	groupScore := func(group []string) float64 {
		cfg, fp := crfConfig(1, true)
		cfg.AttrFilter = group
		r := runCategory(cat, cfg, s, fp+"/part="+fmt.Sprint(group))
		ts := r.result.FinalTriples()
		prec := r.truth.JudgeByAttribute(ts)
		cov := r.truth.AttributeCoverage(ts, r.products())
		var sum float64
		for _, a := range group {
			canon := r.corpus.Canon(a)
			sum += prec[canon].Precision() / 100 * cov[canon] / 100
		}
		return sum
	}
	groups, total := core.OptimizePartition(attrs, groupScore)

	t := &table{
		title: "§VIII-D — greedy attribute-partition optimisation (Vacuum Cleaner, iteration 1)",
		head:  []string{"Group", "Attributes"},
	}
	for i, g := range groups {
		t.addRow(fmt.Sprintf("%d", i+1), fmt.Sprint(g))
	}
	// Reference points: the single global model and full singletons.
	globalScore := groupScore(attrs)
	var singles float64
	for _, a := range attrs {
		singles += groupScore([]string{a})
	}
	return t.String() + fmt.Sprintf(
		"utility: optimised=%.3f  global(one model)=%.3f  singletons=%.3f\n",
		total, globalScore, singles)
}

// HumanInTheLoop simulates the §VIII reviewer: after each iteration an
// oracle strikes the triples the truth sample marks incorrect (the cheap
// review the paper says fixes "a few errors that affect many items"), and
// the next iteration trains on the corrected set.
func HumanInTheLoop(s Settings) string {
	s = s.withDefaults()
	t := &table{
		title: "§VIII — human-in-the-loop correction (CRF + cleaning, full bootstrap)",
		head:  []string{"Category", "Config", "Precision", "Coverage"},
	}
	for _, cn := range []string{"Garden", "Vacuum Cleaner"} {
		cat := mustCat(cn)
		base, fp := crfConfig(s.Iterations, true)
		r := runCategory(cat, base, s, fp)
		ts := r.result.FinalTriples()
		t.addRow(cn, "no review",
			pct(r.truth.Judge(ts).Precision()),
			pct(eval.Coverage(ts, r.products())))

		// The oracle run shares the corpus; the referee strikes triples the
		// truth sample explicitly marks incorrect (it cannot see unjudged
		// ones, mirroring a human reviewing flagged output).
		truth := r.truth
		cfg := base
		cfg.Oracle = func(in []triples.Triple) []triples.Triple {
			out := in[:0:0]
			for _, tr := range in {
				if truth.JudgeTriple(tr) != eval.Incorrect {
					out = append(out, tr)
				}
			}
			return out
		}
		or := runCategory(cat, cfg, s, fp+"/hitl")
		ots := or.result.FinalTriples()
		t.addRow(cn, "oracle review",
			pct(or.truth.Judge(ots).Precision()),
			pct(eval.Coverage(ots, or.products())))
	}
	return t.String()
}
