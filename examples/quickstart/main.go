// Quickstart: run the full PAE bootstrap on a synthetic Japanese category
// and print the extracted triples together with the paper's precision and
// coverage metrics.
package main

import (
	"fmt"

	pae "repro"
	"repro/metrics"
	"repro/synth"
)

func main() {
	// 1. Generate a synthetic Vacuum Cleaner corpus (stand-in for the
	//    paper's Rakuten Ichiba pages; see DESIGN.md).
	cat, _ := synth.CategoryByName("Vacuum Cleaner")
	corpus := synth.Generate(cat, synth.Options{Seed: 7, Items: 200})

	// 2. Run the paper's full system: CRF tagger, five bootstrap
	//    iterations, value diversification, syntactic + semantic cleaning.
	result, err := pae.Run(
		pae.Corpus{Documents: corpus.Pages, Queries: corpus.Queries, Lang: "ja"},
		pae.Config{Iterations: 3},
	)
	if err != nil {
		panic(err)
	}

	fmt.Println("attributes discovered:", result.Attributes)
	fmt.Printf("seed: %d pairs, %d triples\n\n", len(result.SeedPairs), len(result.SeedTriples))

	// 3. Judge every iteration against the planted ground truth.
	truth := metrics.NewTruth(corpus)
	fmt.Printf("%-5s  %-9s  %-8s  %-7s\n", "iter", "precision", "coverage", "triples")
	for _, it := range result.Iterations {
		rep := truth.Judge(it.Triples)
		fmt.Printf("%-5d  %-9.2f  %-8.2f  %-7d\n",
			it.Iteration, rep.Precision(), metrics.Coverage(it.Triples, len(corpus.Pages)), len(it.Triples))
	}

	// 4. Show a few extracted triples.
	fmt.Println("\nsample triples:")
	for i, t := range result.FinalTriples() {
		if i >= 8 {
			break
		}
		fmt.Printf("  %s | %s = %s\n", t.ProductID, t.Attribute, t.Value)
	}
}
