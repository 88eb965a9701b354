// Command paeinspect runs the pipeline on one synthetic category and prints
// a per-judgment breakdown plus samples of erroneous triples — the
// qualitative error-analysis view of the paper's §VIII.
//
// Usage:
//
//	paeinspect -category "Vacuum Cleaner" -items 240 -iterations 1 -errors 25
//	paeinspect report -top 10 run.json     # pretty-print a paerun -report file
//	paeinspect bundle model.paeb           # pretty-print a paerun -bundle file
//	paeinspect corpus -verify ./corpus     # manifest + shard stats of a paegen corpus
//	paeinspect trace traces.json           # pretty-print a /debug/traces snapshot
//	paeinspect diff-bundles -corpus ./corpus live.paeb cand.paeb  # promotion gate: exit 0 promote, 1 reject
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/crf"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/lstm"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "report" {
		reportMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "bundle" {
		bundleMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "corpus" {
		corpusMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		traceMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "diff-bundles" {
		diffBundlesMain(os.Args[2:])
		return
	}
	var (
		name   = flag.String("category", "Vacuum Cleaner", "category name")
		items  = flag.Int("items", 240, "items to generate")
		iters  = flag.Int("iterations", 1, "bootstrap iterations")
		seedV  = flag.Uint64("seed", 42, "corpus seed")
		nErr   = flag.Int("errors", 20, "error samples to print")
		model  = flag.String("model", "crf", "crf or rnn")
		epochs = flag.Int("epochs", 2, "RNN epochs")
		noSem  = flag.Bool("nosem", false, "disable semantic cleaning")
		noSynt = flag.Bool("nosynt", false, "disable syntactic cleaning")
	)
	flag.Parse()

	cat, ok := gen.CategoryByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown category %q\n", *name)
		os.Exit(2)
	}
	gc := gen.Generate(cat, gen.Options{Seed: *seedV, Items: *items})
	cfg := core.Config{
		Iterations:               *iters,
		CRF:                      crf.Config{MaxIter: 40},
		DisableSemanticCleaning:  *noSem,
		DisableSyntacticCleaning: *noSynt,
	}
	if *model == "rnn" {
		cfg.Model = core.RNN
		cfg.LSTM = lstm.Config{Epochs: *epochs}
	}
	res, err := core.New(cfg).Run(core.Corpus{Documents: gc.Pages, Queries: gc.Queries, Lang: gc.Lang})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	truth := eval.NewTruth(gc)
	fmt.Println(res.Describe())
	for _, it := range res.Iterations {
		fmt.Printf("iter %d: tagged=%d veto-removed=%d semantic-removed=%d train-seqs=%d\n",
			it.Iteration, it.TaggedCandidates, it.Veto.Removed(), it.SemanticRemoved, it.TrainingSequences)
	}

	final := res.FinalTriples()
	rep := truth.Judge(final)
	fmt.Printf("final: correct=%d incorrect=%d maybe=%d unjudged=%d precision=%.2f coverage=%.2f\n",
		rep.Correct, rep.Incorrect, rep.MaybeIncorrect, rep.Unjudged,
		rep.Precision(), eval.Coverage(final, len(gc.Pages)))

	fmt.Println("\nper-attribute:")
	byAttr := truth.JudgeByAttribute(final)
	cov := truth.AttributeCoverage(final, len(gc.Pages))
	for attr, r := range byAttr {
		fmt.Printf("  %-14s prec=%6.2f cov=%6.2f (c=%d i=%d m=%d u=%d)\n",
			attr, r.Precision(), cov[attr], r.Correct, r.Incorrect, r.MaybeIncorrect, r.Unjudged)
	}

	fmt.Printf("\nerror samples (incorrect or maybe-incorrect, up to %d):\n", *nErr)
	printed := 0
	for _, tr := range final {
		if printed >= *nErr {
			break
		}
		j := truth.JudgeTriple(tr)
		if j == eval.Incorrect || j == eval.MaybeIncorrect {
			fmt.Printf("  [%s] %s | %s = %q\n", j, tr.ProductID, tr.Attribute, tr.Value)
			printed++
		}
	}
}
