package pae_test

import (
	"fmt"

	pae "repro"
	"repro/metrics"
	"repro/synth"
)

// Example demonstrates the canonical end-to-end use of the library: generate
// (or load) a page corpus, run the bootstrap, and inspect the triples.
func Example() {
	cat, _ := synth.CategoryByName("Tennis")
	corpus := synth.Generate(cat, synth.Options{Seed: 1, Items: 80})

	result, err := pae.Run(
		pae.Corpus{Documents: corpus.Pages, Queries: corpus.Queries, Lang: "ja"},
		pae.Config{Iterations: 1},
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	truth := metrics.NewTruth(corpus)
	rep := truth.Judge(result.FinalTriples())
	fmt.Println("extracted some triples:", len(result.FinalTriples()) > 0)
	fmt.Println("precision above 80%:", rep.Precision() > 80)
	// Output:
	// extracted some triples: true
	// precision above 80%: true
}

// ExampleConfig_ablations shows the Table-IV ablation toggles.
func ExampleConfig_ablations() {
	cfg := pae.Config{
		Iterations:               5,
		DisableSemanticCleaning:  true, // the paper's "-sem" variant
		DisableSyntacticCleaning: true, // "-sem -synt"
		DisableDiversification:   true, // "-div"
	}
	fmt.Println(cfg.Iterations)
	// Output: 5
}
