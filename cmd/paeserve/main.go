// Command paeserve serves a trained model bundle over HTTP — the serve-time
// half of the train/serve split. It loads the versioned artifact written by
// `paerun -bundle`, reconstructs the extraction pipeline (tokenizer, PoS
// tagger, confidence threshold, veto rules) from the bundle's manifest, and
// answers extraction requests concurrently from the one immutable model.
//
// Usage:
//
//	paeserve -bundle model.paeb -addr :8080
//	paeserve -bundle model.paeb -corpus ./corpus -out triples.jsonl
//
// The second form is one-shot batch mode: instead of listening, the pages
// of an on-disk sharded corpus directory stream
// through the extractor and the triples are written as JSON lines — offline
// re-extraction with the exact serving configuration, without standing up
// an HTTP server.
//
// API (see internal/serve for the contract the fleet router relies on):
//
//	POST /extract       {"id": "p1", "html": "<html>…"}          one page
//	POST /extract       {"pages": [{"id": "p1", "html": "…"}]}   a batch
//	GET  /healthz       readiness: 200 while serving, 503 once draining
//	GET  /bundle        manifest + file geometry
//	GET  /metrics       Prometheus text exposition of the live registry
//	GET  /debug/traces  slowest + errored request traces (see paeinspect trace)
//	POST /admin/reload  hot-swap the bundle (optional {"bundle": path})
//
// Every /extract response echoes its request's X-Pae-Trace ID (minted if
// the client sent none), so any reply can be correlated with /debug/traces.
//
// Operations: -max-inflight bounds concurrently running extractions (further
// requests queue), -request-timeout time-boxes each extraction, SIGHUP
// hot-reloads the bundle from disk with zero downtime, SIGINT/SIGTERM flips
// /healthz to draining, waits -drain-notice for health checkers to notice,
// then drains in-flight requests before exiting, and -debug-addr serves
// /debug/pprof, /debug/vars and the live counters and histograms at
// /debug/obs. With -v each request also logs one serve.request line.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"encoding/json"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		bundlePath  = flag.String("bundle", "model.paeb", "model bundle written by paerun -bundle")
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers     = flag.Int("workers", 0, "per-request worker-pool size (0 = one per CPU); never changes output")
		maxInflight = flag.Int("max-inflight", 64, "maximum concurrently running extractions; further requests queue (0 = unlimited)")
		reqTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-request extraction budget (0 disables)")
		drain       = flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight requests")
		drainNotice = flag.Duration("drain-notice", 0, "how long to answer 503 on /healthz before closing the listener, so fleet health checks drop this replica first (set ≥ the router's probe interval)")
		verbose     = flag.Bool("v", false, "debug logging (default level is info)")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/obs on this address")
		corpusDir   = flag.String("corpus", "", "one-shot batch mode: extract this corpus directory and exit instead of serving")
		batchOut    = flag.String("out", "triples.jsonl", "output file for -corpus batch mode (JSON lines)")
		traceBuffer = flag.Int("trace-buffer", 32, "slow/error trace exemplars kept for GET /debug/traces (0 disables capture)")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	rec := obs.New(obs.Options{Logger: logger})

	if *corpusDir != "" {
		x, err := extract.Open(*bundlePath, extract.Options{Workers: *workers, Obs: rec})
		if err != nil {
			fatal(err)
		}
		if err := extractCorpus(x, *corpusDir, *batchOut, logger); err != nil {
			fatal(err)
		}
		return
	}

	var traces *obs.TraceLog
	if *traceBuffer > 0 {
		traces = obs.NewTraceLog(*traceBuffer)
	}
	s, err := serve.New(serve.Config{
		BundlePath:  *bundlePath,
		Workers:     *workers,
		MaxInflight: *maxInflight,
		Timeout:     *reqTimeout,
		Obs:         rec,
		Traces:      traces,
	})
	if err != nil {
		fatal(err)
	}
	m := s.Extractor().Manifest()
	logger.Info("bundle loaded", "path", *bundlePath, "model", m.ModelKind,
		"lang", m.Lang, "fingerprint", s.Fingerprint()[:12],
		"attributes", len(m.Attributes))

	if *debugAddr != "" {
		closer, dbg, err := obs.StartDebugServer(*debugAddr, rec)
		if err != nil {
			fatal(err)
		}
		defer closer.Close()
		logger.Info("debug server listening", "addr", "http://"+dbg+"/debug/pprof/")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGHUP hot-reloads the bundle from the path it was last loaded from
	// — the operator's rollout hook when pushing a new artifact in place.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if r, err := s.Reload(""); err != nil {
				logger.Error("reload failed; old bundle still serving", "err", err)
			} else {
				logger.Info("bundle reloaded", "old", r.Old[:12], "new", r.New[:12], "path", r.Bundle)
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	// Graceful shutdown, readiness first: flip /healthz to draining and keep
	// serving for -drain-notice so fleet health checks stop routing here,
	// then stop accepting and give in-flight requests the drain budget.
	logger.Info("shutting down", "drain", *drain, "notice", *drainNotice)
	s.SetDraining(true)
	if *drainNotice > 0 {
		time.Sleep(*drainNotice)
	}
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fatal(fmt.Errorf("shutdown: %w", err))
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	logger.Info("drained; bye")
}

// extractCorpus is the one-shot batch mode: stream every page of an on-disk
// corpus through the extractor (SIGINT/SIGTERM cancel mid-corpus) and write
// the triples as JSON lines.
func extractCorpus(x *extract.Extractor, dir, out string, logger *slog.Logger) error {
	r, err := corpus.Open(dir)
	if err != nil {
		return err
	}
	src := r.Source()
	defer src.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ts, err := x.ExtractSource(ctx, src)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, t := range ts {
		if err := enc.Encode(t); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	logger.Info("batch extraction complete", "corpus", dir,
		"pages", r.Manifest.Pages, "triples", len(ts), "out", out)
	fmt.Printf("wrote %d triples to %s\n", len(ts), out)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
