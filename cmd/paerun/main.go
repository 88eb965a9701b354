// Command paerun executes the full PAE bootstrap on a sharded corpus
// directory produced by paegen (corpus.json + JSONL shards) and writes the
// extracted triples as JSON lines. Pages stream from disk through the
// corpus layer; with -spill the prepared corpus spills to bounded shards
// too, so memory scales with the working set, not the corpus. When the
// corpus carries planted truth it also prints the paper's precision and
// coverage metrics per iteration, streaming them to stderr as iterations
// complete.
//
// Usage:
//
//	paerun -corpus ./corpus -iterations 5 -model crf -out triples.jsonl
//	paerun -corpus ./corpus -spill /tmp/pae-spill -out triples.jsonl
//
// Long runs are interruptible: Ctrl-C (or -timeout) stops the bootstrap at
// the next cancellation point and still writes the triples of every
// completed iteration. With -checkpoint DIR each completed iteration is
// persisted, and -resume continues a killed run from the last completed
// iteration, reproducing the uninterrupted run's output exactly. When the
// corpus has grown since the checkpoint (`paegen -append`), -resume fails
// typed and -incremental re-bootstraps from the checkpoint instead, reusing
// the cached per-shard seed/prep work of every unchanged shard and touching
// disk only for the appended ones.
//
// Observability: -v turns on debug logging (-logfmt json for machine-readable
// logs), -report run.json writes the machine-readable run report (span tree +
// metrics; pretty-print it with `paeinspect report`), -debug-addr :6060
// serves /debug/pprof, /debug/vars and the live report at /debug/obs, and
// -cpuprofile/-memprofile capture pprof profiles of the whole run.
//
// Serving: -bundle model.paeb freezes the trained model plus every
// inference-time setting into a versioned bundle; serve it with
// `paeserve -bundle model.paeb` and inspect it with `paeinspect bundle`.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/eval"
	"repro/internal/lstm"
	"repro/internal/obs"
	"repro/internal/tagger"
)

func main() {
	var (
		dir        = flag.String("corpus", "corpus", "corpus directory from paegen")
		iters      = flag.Int("iterations", 5, "bootstrap iterations")
		model      = flag.String("model", "crf", "crf, rnn, or both (ensemble)")
		combine    = flag.String("combine", "intersection", "ensemble mode for -model both: intersection or union")
		minConf    = flag.Float64("minconf", 0, "drop spans below this model confidence (0 disables)")
		epochs     = flag.Int("epochs", 2, "RNN epochs")
		workers    = flag.Int("workers", 0, "worker-pool size for every pipeline stage (0 = one per CPU); never changes output")
		spill      = flag.String("spill", "", "spill the prepared corpus to bounded shards under this directory (empty keeps it in memory); never changes output")
		spillSents = flag.Int("spill-sentences", 0, "prepared sentences per spill shard (0 = default 2048)")
		out        = flag.String("out", "triples.jsonl", "output file (JSON lines)")
		bundleOut  = flag.String("bundle", "", "write the trained model as a versioned serving bundle (.paeb) to this file")
		checkpoint = flag.String("checkpoint", "", "directory for per-iteration checkpoints (empty disables)")
		resume     = flag.Bool("resume", false, "continue from the last completed iteration in -checkpoint")
		increment  = flag.Bool("incremental", false, "re-bootstrap from the -checkpoint when the corpus has grown by append, reusing per-shard work")
		timeout    = flag.Duration("timeout", 0, "time-box the run; partial results are kept (0 disables)")
		verbose    = flag.Bool("v", false, "debug logging (default level is warn)")
		logfmt     = flag.String("logfmt", "text", "log format: text or json")
		report     = flag.String("report", "", "write the machine-readable run report (span tree + metrics) to this file")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/obs on this address")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	if *resume && *checkpoint == "" {
		fatal(errors.New("-resume requires -checkpoint"))
	}
	if *increment && *checkpoint == "" {
		fatal(errors.New("-incremental requires -checkpoint"))
	}

	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelDebug
	}
	var handler slog.Handler
	switch *logfmt {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	case "text":
		handler = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	default:
		fatal(fmt.Errorf("unknown -logfmt %q (want text or json)", *logfmt))
	}
	logger := slog.New(handler)
	rec := obs.New(obs.Options{Logger: logger})

	if *debugAddr != "" {
		closer, addr, err := obs.StartDebugServer(*debugAddr, rec)
		if err != nil {
			fatal(err)
		}
		defer closer.Close()
		fmt.Fprintf(os.Stderr, "debug server listening on http://%s/debug/pprof/\n", addr)
	}
	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer stop()
	}

	// Ctrl-C stops the bootstrap at the next cancellation point; completed
	// iterations are still written (and checkpointed, with -checkpoint).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The corpus layer handles both on-disk layouts and streams page bodies;
	// nothing here ever loads the whole corpus.
	r, err := corpus.Open(*dir)
	if err != nil {
		fatal(err)
	}
	m := r.Manifest
	pageCount := m.Pages
	// The corpus names its own workload: a title corpus runs the title
	// pipeline (distant-supervision seeding from the manifest's lexicon, no
	// table harvesting) without any flag — the artifact, not the operator,
	// knows what shape its pages are.
	wk, err := m.WorkloadKind()
	if err != nil {
		fatal(err)
	}

	var truth *eval.Truth
	if ec, err := r.EvalCorpus(); err != nil {
		fatal(err)
	} else if ec != nil {
		truth = eval.NewTruth(ec)
	}

	cfg := core.Config{
		Workload:       wk,
		Iterations:     *iters,
		Parallelism:    *workers,
		Spill:          *spill,
		SpillSentences: *spillSents,
		CRF:            crf.Config{},
		LSTM:           lstm.Config{Epochs: *epochs},
		MinConfidence:  *minConf,
		Checkpoint:     *checkpoint,
		Resume:         *resume,
		Incremental:    *increment,
		Obs:            rec,
		// Stream per-iteration progress to stderr as cycles complete, so a
		// multi-hour run is observable before it finishes.
		OnIteration: func(it core.IterationResult) {
			if truth != nil {
				rep := truth.Judge(it.Triples)
				fmt.Fprintf(os.Stderr, "iter %d: precision=%.2f coverage=%.2f triples=%d\n",
					it.Iteration, rep.Precision(), eval.Coverage(it.Triples, pageCount), len(it.Triples))
				return
			}
			fmt.Fprintf(os.Stderr, "iter %d: tagged=%d veto-removed=%d semantic-removed=%d triples=%d\n",
				it.Iteration, it.TaggedCandidates, it.Veto.Removed(), it.SemanticRemoved, len(it.Triples))
		},
	}
	switch *model {
	case "rnn":
		cfg.Model = core.RNN
	case "both":
		mode := tagger.Intersection
		if *combine == "union" {
			mode = tagger.Union
		}
		cfg.Combine = &mode
	}
	src := r.Source()
	defer src.Close()
	res, runErr := core.New(cfg).RunSource(ctx, core.Input{
		Source: src, Queries: m.Queries, Lang: m.Lang, Lexicon: m.Lexicon,
	})

	if *report != "" {
		rep := rec.Snapshot()
		if res != nil {
			rep.Completed = res.StopReason.Completed()
			if !rep.Completed {
				rep.StopReason = res.StopReason.String()
			}
		} else if runErr != nil {
			rep.StopReason = runErr.Error()
		}
		if err := rep.WriteFile(*report); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "wrote run report to %s\n", *report)
		}
	}
	if *memprofile != "" {
		if err := obs.WriteHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
		}
	}
	if runErr != nil {
		if errors.Is(runErr, core.ErrCorpusGrown) {
			fmt.Fprintf(os.Stderr, "%v\n", runErr)
			fmt.Fprintf(os.Stderr, "re-bootstrap from it with: paerun -corpus %s -checkpoint %s -incremental\n", *dir, *checkpoint)
			os.Exit(1)
		}
		fatal(runErr)
	}

	fmt.Println(res.Describe())
	if res.WarmStart {
		fmt.Fprintf(os.Stderr, "incremental re-bootstrap: reused %d checkpointed shards, recomputed %d\n",
			res.ShardsReused, res.ShardsRecomputed)
	} else if res.ShardsReused > 0 {
		fmt.Fprintf(os.Stderr, "shard cache: reused %d shards, recomputed %d\n",
			res.ShardsReused, res.ShardsRecomputed)
	}
	if !res.StopReason.Completed() {
		fmt.Fprintf(os.Stderr, "run %s\n", res.StopReason)
		if *checkpoint != "" {
			if errors.Is(res.StopReason.Err, core.ErrCorpusGrown) {
				fmt.Fprintf(os.Stderr, "re-bootstrap with: paerun -corpus %s -checkpoint %s -incremental\n", *dir, *checkpoint)
			} else {
				fmt.Fprintf(os.Stderr, "resume with: paerun -corpus %s -checkpoint %s -resume\n", *dir, *checkpoint)
			}
		}
	}
	for _, it := range res.Iterations {
		for _, e := range it.Errors {
			fmt.Fprintf(os.Stderr, "iteration %d: contained error: %s\n", it.Iteration, e)
		}
	}

	if truth != nil {
		fmt.Printf("%-6s %-10s %-10s %-8s\n", "iter", "precision", "coverage", "triples")
		for _, it := range res.Iterations {
			rep := truth.Judge(it.Triples)
			fmt.Printf("%-6d %-10.2f %-10.2f %-8d\n", it.Iteration,
				rep.Precision(), eval.Coverage(it.Triples, pageCount), len(it.Triples))
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	for _, t := range res.FinalTriples() {
		if err := enc.Encode(t); err != nil {
			fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d triples to %s\n", len(res.FinalTriples()), *out)

	// The bundle freezes the trained model plus every inference-time setting
	// into a single versioned artifact that cmd/paeserve loads. Written last
	// so a run without a trained model (seed-only, early stop) still leaves
	// its triples on disk before the error surfaces.
	if *bundleOut != "" {
		b, err := res.Bundle()
		if err != nil {
			fatal(fmt.Errorf("bundle: %w", err))
		}
		if err := b.SaveFile(*bundleOut); err != nil {
			fatal(fmt.Errorf("bundle: %w", err))
		}
		fmt.Printf("wrote model bundle to %s (%s, fingerprint %.12s)\n",
			*bundleOut, b.Manifest.ModelKind, b.Fingerprint())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
