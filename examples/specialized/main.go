// Specialized: the paper's §VIII-D experiment — a single global model tags
// every attribute of a category, while a specialised model trained on a
// subset of attributes can multiply the coverage of rare attributes, at the
// risk of losing the inter-attribute distinctions that keep precision high.
package main

import (
	"fmt"

	pae "repro"
	"repro/metrics"
	"repro/synth"
)

func main() {
	cat, _ := synth.CategoryByName("Digital Cameras")
	corpus := synth.Generate(cat, synth.Options{Seed: 21, Items: 220})
	input := pae.Corpus{Documents: corpus.Pages, Queries: corpus.Queries, Lang: "ja"}

	// The complex attributes of §VIII-C: A1 shutter speed, A2 effective
	// pixels, A3 weight.
	targets := []string{"シャッタースピード", "有効画素数", "重量"}

	// Global model over every attribute.
	global, err := pae.Run(input, pae.Config{Iterations: 2})
	if err != nil {
		panic(err)
	}
	// Resolve the representative surface names the global run chose for the
	// target attributes, then train the specialised model on just those.
	var filter []string
	for _, a := range global.Attributes {
		for _, want := range targets {
			if corpus.Canon(a) == want {
				filter = append(filter, a)
			}
		}
	}
	specialized, err := pae.Run(input, pae.Config{Iterations: 2, AttrFilter: filter})
	if err != nil {
		panic(err)
	}

	truth := metrics.NewTruth(corpus)
	gCov := truth.AttributeCoverage(global.FinalTriples(), len(corpus.Pages))
	sCov := truth.AttributeCoverage(specialized.FinalTriples(), len(corpus.Pages))
	gPrec := truth.JudgeByAttribute(global.FinalTriples())
	sPrec := truth.JudgeByAttribute(specialized.FinalTriples())

	fmt.Printf("%-14s  %-12s  %-12s  %-12s  %-12s\n",
		"attribute", "cov global", "cov special", "prec global", "prec special")
	for _, a := range targets {
		fmt.Printf("%-14s  %-12.2f  %-12.2f  %-12.2f  %-12.2f\n",
			a, gCov[a], sCov[a], gPrec[a].Precision(), sPrec[a].Precision())
	}
}
