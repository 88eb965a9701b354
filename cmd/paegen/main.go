// Command paegen generates a synthetic product-page corpus for one category
// and writes it to a directory in the sharded on-disk corpus format: JSONL
// page shards with per-shard SHA-256 fingerprints, a corpus.json manifest
// (schema version, query log, alias table, shard geometry), and the planted
// ground truth as a truth.jsonl sidecar. Pages stream from the generator
// straight into the shard writer, so memory is bounded by one render chunk —
// never by corpus size. The result feeds paerun -corpus, paeserve -corpus,
// and paeinspect corpus.
//
// Usage:
//
//	paegen -category "Vacuum Cleaner" -items 400 -out ./corpus
//	paegen -category "Vacuum Cleaner" -shard-size 128 -out ./corpus
//	paegen -workload title -category "Vacuum Cleaner" -out ./titles
//	paegen -list
//
// -workload selects the page shape: detail-page (the default) renders full
// product pages with dictionary tables; title renders one listing title per
// item and records the distant-supervision lexicon in the manifest.
//
// -append grows an existing sharded corpus in place (delta ingestion):
//
//	paegen -append -items 120 -seed 2 -out ./corpus
//
// The category, workload, language and shard size come from the existing
// manifest; -category/-workload may be passed but must agree with it. New
// pages land in new shards with product IDs offset past the committed page
// count, new truth judgments append to the sidecar, queries are unioned, and
// the manifest's generation counter is bumped at the same temp-file + rename
// commit point a fresh write uses. Pass a -seed different from any earlier
// one, or the delta replays earlier pages' content under fresh IDs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/seed"
	"repro/internal/workload"
)

func main() {
	var (
		name      = flag.String("category", "Vacuum Cleaner", "category name")
		items     = flag.Int("items", 0, "items to generate (0 = category default)")
		seedFlag  = flag.Uint64("seed", 1, "generator seed")
		out       = flag.String("out", "corpus", "output directory")
		shardSize = flag.Int("shard-size", corpus.DefaultShardSize, "pages per shard")
		wkFlag    = flag.String("workload", "", `page shape: "detail-page" (default) or "title"`)
		appendTo  = flag.Bool("append", false, "append new pages to the existing corpus at -out (delta ingestion)")
		list      = flag.Bool("list", false, "list category names and exit")
	)
	flag.Parse()

	wk, err := workload.Parse(*wkFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (known: %v)\n", err, workload.Kinds())
		os.Exit(2)
	}

	if *list {
		for _, c := range append(gen.JapaneseCategories(), gen.GermanCategories()...) {
			fmt.Printf("%-20s lang=%s items=%d\n", c.Name, c.Lang, c.Items)
		}
		return
	}
	if *appendTo {
		appendCorpus(*out, *items, *seedFlag, *wkFlag, *name, flagPassed("category"))
		return
	}
	cat, ok := gen.CategoryByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown category %q; use -list\n", *name)
		os.Exit(2)
	}
	opt := gen.Options{Seed: *seedFlag, Items: *items}

	w, err := corpus.NewWriter(*out, corpus.WriterOptions{
		Name: cat.Name, Lang: cat.Lang, ShardSize: *shardSize,
	})
	if err != nil {
		fatal(err)
	}
	// Pages stream into the shard writer as the generator renders them; the
	// returned Corpus carries only the metadata (queries, aliases, truth).
	generate := gen.GenerateStreamCtx
	if wk == workload.Title {
		generate = gen.GenerateTitlesStreamCtx
	}
	c, err := generate(context.Background(), cat, opt, func(p gen.PageResult) error {
		return w.WritePage(seed.Document{ID: p.Page.ID, HTML: p.Page.HTML})
	})
	if err != nil {
		fatal(err)
	}
	w.SetWorkload(wk)
	w.SetLexicon(c.Lexicon)
	w.SetQueries(c.Queries)
	w.SetAliases(c.Aliases)
	for _, t := range c.Truth {
		if err := w.WriteTruth(t); err != nil {
			fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	m := w.Manifest()
	fmt.Printf("wrote %d pages in %d shards, %d queries, %d truth triples to %s\n",
		m.Pages, len(m.Shards), len(m.Queries), m.TruthCount, *out)
}

// appendCorpus is the -append path: grow the corpus at dir by items pages.
// Identity (category, workload, shard size) comes from the committed
// manifest; explicitly passed -category/-workload flags are cross-checked
// against it so a delta can never silently mix page shapes or categories.
func appendCorpus(dir string, items int, seedV uint64, wkFlag, nameFlag string, namePassed bool) {
	if items <= 0 {
		fmt.Fprintln(os.Stderr, "-append requires -items > 0 (the delta size)")
		os.Exit(2)
	}
	w, err := corpus.OpenAppend(dir)
	if err != nil {
		fatal(err)
	}
	m := w.Manifest()
	wk, err := m.WorkloadKind()
	if err != nil {
		fatal(err)
	}
	if wkFlag != "" && wkFlag != wk.String() {
		fmt.Fprintf(os.Stderr, "corpus %s holds the %s workload; -workload %s would mix page shapes\n", dir, wk, wkFlag)
		os.Exit(2)
	}
	if namePassed && nameFlag != m.Name {
		fmt.Fprintf(os.Stderr, "corpus %s holds category %q; -category %q would mix categories\n", dir, m.Name, nameFlag)
		os.Exit(2)
	}
	cat, ok := gen.CategoryByName(m.Name)
	if !ok {
		fmt.Fprintf(os.Stderr, "corpus %s names unknown category %q\n", dir, m.Name)
		os.Exit(2)
	}
	// Offsetting the ID index past the committed page count keeps every
	// product ID in the grown corpus unique across generations.
	opt := gen.Options{Seed: seedV, Items: items, IDOffset: m.Pages}
	generate := gen.GenerateStreamCtx
	if wk == workload.Title {
		generate = gen.GenerateTitlesStreamCtx
	}
	c, err := generate(context.Background(), cat, opt, func(p gen.PageResult) error {
		return w.WritePage(seed.Document{ID: p.Page.ID, HTML: p.Page.HTML})
	})
	if err != nil {
		fatal(err)
	}
	// Identity metadata (workload, lexicon, aliases) stays as committed; only
	// the query log grows, by union.
	w.MergeQueries(c.Queries)
	for _, t := range c.Truth {
		if err := w.WriteTruth(t); err != nil {
			fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	mm := w.Manifest()
	fmt.Printf("appended %d pages (now %d in %d shards, generation %d, %d truth triples) to %s\n",
		items, mm.Pages, len(mm.Shards), mm.Generation, mm.TruthCount, dir)
}

// flagPassed reports whether the named flag was set explicitly on the
// command line (as opposed to resting at its default).
func flagPassed(name string) bool {
	passed := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			passed = true
		}
	})
	return passed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
