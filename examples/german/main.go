// German: the paper's §VII cross-language evaluation — the same pipeline,
// unchanged except for the tokenizer selected by the language code, on the
// three German categories (mailbox, coffee machines, garden).
package main

import (
	"fmt"

	pae "repro"
	"repro/metrics"
	"repro/synth"
)

func main() {
	fmt.Printf("%-22s  %-9s  %-8s  %-7s\n", "category", "precision", "coverage", "triples")
	for _, cat := range synth.GermanCategories() {
		corpus := synth.Generate(cat, synth.Options{Seed: 11, Items: 180})
		result, err := pae.Run(
			pae.Corpus{Documents: corpus.Pages, Queries: corpus.Queries, Lang: "de"},
			pae.Config{Iterations: 3},
		)
		if err != nil {
			panic(err)
		}
		truth := metrics.NewTruth(corpus)
		final := result.FinalTriples()
		rep := truth.Judge(final)
		fmt.Printf("%-22s  %-9.2f  %-8.2f  %-7d\n",
			cat.Name, rep.Precision(), metrics.Coverage(final, len(corpus.Pages)), len(final))
	}
}
