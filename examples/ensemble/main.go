// Ensemble: the model-combination extension the paper's conclusion (§IX)
// proposes — "they often make similar mistakes, but they can complement each
// other". The intersection of CRF and RNN predictions trades coverage for
// precision; the union trades the other way.
package main

import (
	"fmt"

	pae "repro"
	"repro/metrics"
	"repro/synth"
)

func main() {
	cat, _ := synth.CategoryByName("Ladies Bags")
	corpus := synth.Generate(cat, synth.Options{Seed: 13, Items: 180})
	input := pae.Corpus{Documents: corpus.Pages, Queries: corpus.Queries, Lang: "ja"}
	truth := metrics.NewTruth(corpus)

	show := func(name string, cfg pae.Config) {
		res, err := pae.Run(input, cfg)
		if err != nil {
			panic(err)
		}
		final := res.FinalTriples()
		rep := truth.Judge(final)
		fmt.Printf("%-22s  precision %6.2f  coverage %6.2f  triples %d\n",
			name, rep.Precision(), metrics.Coverage(final, len(corpus.Pages)), len(final))
	}

	show("CRF", pae.Config{Iterations: 1})
	show("RNN (2 epochs)", pae.Config{Iterations: 1, Model: pae.RNN})
	inter, union := pae.Intersection, pae.Union
	show("ensemble intersection", pae.Config{Iterations: 1, Combine: &inter})
	show("ensemble union", pae.Config{Iterations: 1, Combine: &union})
}
