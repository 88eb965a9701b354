// Command paerouter is the fleet coordinator: it fans /extract requests out
// to N paeserve backends with active health checking, bounded retries
// against different replicas, optional tail-latency hedging, per-backend
// circuit breakers, fingerprint-pinned routing and graceful load shedding.
// See internal/fleet for the mechanics and DESIGN.md §13 for the policy.
//
// Usage:
//
//	paerouter -backends http://127.0.0.1:8081,http://127.0.0.1:8082 -addr :8080
//
// API:
//
//	POST /extract       same contract as paeserve, answered by the fleet
//	GET  /healthz       router readiness: 200 while ≥1 backend is routable
//	GET  /fleet         per-backend state, fingerprint, breaker, load and
//	                    live latency quantiles (rolling window)
//	GET  /metrics       Prometheus text exposition of the fleet registry
//	GET  /debug/traces  slowest + errored request traces (see paeinspect trace)
//
// Every /extract response echoes its request's X-Pae-Trace ID (minted at
// the router if the client sent none); the same ID is forwarded to every
// backend attempt — retries and hedges included — so one logical request is
// one trace across the whole fleet.
//
// Operations: rolling a new bundle is `POST /admin/reload` (or SIGHUP) on
// each backend in turn — the router's probes pick up the new fingerprint
// and pinned routing keeps every logical request on one model version
// throughout. Killing a backend (even -9) costs no client-visible failures:
// retries absorb the fault while the health checker takes it out of
// rotation. Under overload the router sheds batch requests first, then all,
// as typed 503s with Retry-After.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

func main() {
	var (
		backends    = flag.String("backends", "", "comma-separated backend base URLs (required), e.g. http://127.0.0.1:8081,http://127.0.0.1:8082")
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		probeEvery  = flag.Duration("probe-interval", time.Second, "active health-check period per backend")
		probeWait   = flag.Duration("probe-timeout", 2*time.Second, "budget for one health probe")
		failN       = flag.Int("fail-threshold", 2, "consecutive probe failures that demote a backend one rung (healthy→suspect→down)")
		riseN       = flag.Int("rise-threshold", 2, "consecutive probe successes that promote a backend one rung")
		attempts    = flag.Int("max-attempts", 3, "total tries per request (first + retries + hedges), each on a different backend")
		attemptWait = flag.Duration("attempt-timeout", 10*time.Second, "per-attempt budget")
		backoff     = flag.Duration("retry-backoff", 25*time.Millisecond, "base of the jittered exponential retry backoff")
		hedgeAfter  = flag.Duration("hedge-after", 0, "hedge single-page requests onto a second backend after this long (0 disables)")
		maxInflight = flag.Int("max-inflight", 256, "router-wide in-flight bound; past it requests are shed with 503 + Retry-After (0 = unlimited)")
		batchShed   = flag.Float64("batch-shed-fraction", 0.75, "shed batch requests once in-flight load exceeds this fraction of -max-inflight")
		brkN        = flag.Int("breaker-threshold", 5, "consecutive request failures that open a backend's circuit")
		brkCool     = flag.Duration("breaker-cooldown", 2*time.Second, "how long an open circuit blocks a backend before a trial request")
		mixed       = flag.Bool("allow-mixed-fingerprints", false, "disable fingerprint-pinned routing (allow retries to land on a different bundle version)")
		drain       = flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight requests")
		verbose     = flag.Bool("v", false, "debug logging (default level is info)")
		debugAddr   = flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/obs on this address")
		traceBuffer = flag.Int("trace-buffer", 32, "slow/error trace exemplars kept for GET /debug/traces (0 disables capture)")
	)
	flag.Parse()

	urls := splitBackends(*backends)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "paerouter: -backends is required (comma-separated base URLs)")
		os.Exit(2)
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	rec := obs.New(obs.Options{Logger: logger, NoRuntimeStats: true})

	var traces *obs.TraceLog
	if *traceBuffer > 0 {
		traces = obs.NewTraceLog(*traceBuffer)
	}
	rt, err := fleet.New(fleet.Config{
		Backends:               urls,
		ProbeInterval:          *probeEvery,
		ProbeTimeout:           *probeWait,
		FailThreshold:          *failN,
		RiseThreshold:          *riseN,
		MaxAttempts:            *attempts,
		AttemptTimeout:         *attemptWait,
		RetryBackoff:           *backoff,
		HedgeAfter:             *hedgeAfter,
		MaxInflight:            *maxInflight,
		BatchShedFraction:      *batchShed,
		BreakerThreshold:       *brkN,
		BreakerCooldown:        *brkCool,
		AllowMixedFingerprints: *mixed,
		Obs:                    rec,
		Traces:                 traces,
	})
	if err != nil {
		fatal(err)
	}

	if *debugAddr != "" {
		closer, dbg, err := obs.StartDebugServer(*debugAddr, rec)
		if err != nil {
			fatal(err)
		}
		defer closer.Close()
		logger.Info("debug server listening", "addr", "http://"+dbg+"/debug/pprof/")
	}

	// Warm-up probe round so the first request routes on real states, then
	// continuous probing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt.ProbeAll(ctx)
	rt.Start()
	defer rt.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("routing", "addr", *addr, "backends", len(urls))

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	logger.Info("shutting down", "drain", *drain)
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

func splitBackends(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(u), "/"))
		if u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
