// The `paeinspect corpus` subcommand: a human-readable view of an on-disk
// corpus directory — schema version, shard geometry, per-shard page counts
// and fingerprints, and the truth sidecar — without loading a single page
// body. With -verify it additionally streams every shard to check the
// SHA-256 fingerprints recorded in the manifest.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/corpus"
)

func corpusMain(args []string) {
	fs := flag.NewFlagSet("paeinspect corpus", flag.ExitOnError)
	verify := fs.Bool("verify", false, "stream every shard and verify its SHA-256 against the manifest")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: paeinspect corpus [-verify] DIR")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	dir := fs.Arg(0)
	r, err := corpus.Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m := r.Manifest

	fmt.Printf("corpus %s (schema %d, sharded layout)\n", dir, m.SchemaVersion)
	if wk, err := m.WorkloadKind(); err != nil {
		fmt.Printf("workload: %s (unknown to this build)\n", m.Workload)
	} else {
		fmt.Printf("workload: %s\n", wk.WithDefault())
	}
	fmt.Printf("category: %s  lang: %s\n", m.Name, m.Lang)
	fmt.Printf("generation: %d", m.Generation)
	if m.Generation == 0 {
		fmt.Print(" (never appended to)")
	} else {
		fmt.Printf(" (%d append commits)", m.Generation)
	}
	fmt.Println()
	fmt.Printf("pages: %d  queries: %d  aliases: %d\n", m.Pages, len(m.Queries), len(m.Aliases))
	if m.TruthCount > 0 {
		fmt.Printf("truth: %d judgments (%s)\n", m.TruthCount, m.TruthFile)
	} else {
		fmt.Println("truth: none")
	}
	if len(m.Shards) > 0 {
		var bytes int64
		for _, s := range m.Shards {
			bytes += s.Bytes
		}
		fmt.Printf("shards: %d (shard size %d, %d bytes total)\n", len(m.Shards), m.ShardSize, bytes)
		fmt.Printf("  %-22s %8s %12s  %s\n", "file", "pages", "bytes", "sha256")
		for _, s := range m.Shards {
			fmt.Printf("  %-22s %8d %12d  %.16s…\n", s.File, s.Pages, s.Bytes, s.SHA256)
		}
	}

	if *verify {
		// Orphaned temp files are harmless (the manifest names none of
		// them) but worth surfacing: they are the residue of a crashed
		// write or append, safe to delete.
		orphans, err := r.Orphans()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, o := range orphans {
			fmt.Printf("orphan: %s (uncommitted temp file; safe to delete)\n", o)
		}
		// Streaming every page through the Source exercises the same
		// fingerprint and page-count checks a run would hit.
		src := r.Source()
		defer src.Close()
		pages := 0
		for {
			if _, err := src.Next(); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				fmt.Fprintf(os.Stderr, "verify failed after %d pages: %v\n", pages, err)
				os.Exit(1)
			}
			pages++
		}
		if pages != m.Pages {
			fmt.Fprintf(os.Stderr, "verify failed: read %d pages, manifest says %d\n", pages, m.Pages)
			os.Exit(1)
		}
		fmt.Printf("verify: OK (%d pages, every shard fingerprint matches)\n", pages)
	}
}
