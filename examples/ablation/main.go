// Ablation: the paper's Table IV — remove the semantic cleaning, the
// syntactic (veto) cleaning, or the value-diversification module from the
// pipeline and watch the precision drop on a noisy category.
package main

import (
	"fmt"

	pae "repro"
	"repro/metrics"
	"repro/synth"
)

func main() {
	cat, _ := synth.CategoryByName("Garden")
	corpus := synth.Generate(cat, synth.Options{Seed: 5, Items: 240})
	input := pae.Corpus{Documents: corpus.Pages, Queries: corpus.Queries, Lang: "ja"}
	truth := metrics.NewTruth(corpus)

	configs := []struct {
		name string
		cfg  pae.Config
	}{
		{"full system", pae.Config{Iterations: 3}},
		{"-semantic cleaning", pae.Config{Iterations: 3, DisableSemanticCleaning: true}},
		{"-semantic -syntactic", pae.Config{Iterations: 3,
			DisableSemanticCleaning: true, DisableSyntacticCleaning: true}},
		{"-diversification", pae.Config{Iterations: 3, DisableDiversification: true}},
	}
	fmt.Printf("%-22s  %-9s  %-8s\n", "config", "precision", "coverage")
	for _, c := range configs {
		res, err := pae.Run(input, c.cfg)
		if err != nil {
			panic(err)
		}
		final := res.FinalTriples()
		rep := truth.Judge(final)
		fmt.Printf("%-22s  %-9.2f  %-8.2f\n",
			c.name, rep.Precision(), metrics.Coverage(final, len(corpus.Pages)))
	}
}
