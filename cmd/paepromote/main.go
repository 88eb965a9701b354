// Command paepromote closes the production loop: it shadow-evaluates a
// candidate bundle against the live one on held-out truth, and only on a
// non-regressed verdict rolls it across the serving fleet via the router's
// backend discovery and each backend's hot reload. A rejected candidate
// leaves the fleet untouched. Candidates come from paerun (`paerun -corpus
// ./corpus -checkpoint ./ckpt -incremental -bundle cand.paeb` after a
// paegen -append); gating without a fleet is `paeinspect diff-bundles`.
//
// Usage:
//
//	paepromote -router http://127.0.0.1:8080 -corpus ./corpus \
//	    -live live.paeb -candidate cand.paeb
//
// The gate is `paeinspect diff-bundles` as a library (internal/promote):
// overall and per-attribute precision/coverage deltas against the corpus's
// planted truth, bounded by -max-precision-drop / -max-coverage-drop. The
// rollout POSTs each backend's /admin/reload in turn — the router serves the
// mixed-fingerprint fleet correctly while the roll is in flight — then waits
// for the router's /fleet view to converge on the candidate fingerprint.
//
// Exit status: 0 promoted, 1 rejected or failed, 2 usage.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"repro/internal/promote"
)

func main() {
	var (
		router    = flag.String("router", "", "fleet router base URL (required), e.g. http://127.0.0.1:8080")
		corpusDir = flag.String("corpus", "corpus", "corpus directory whose planted truth the gate judges on")
		livePath  = flag.String("live", "", "currently served bundle (.paeb) to diff against (required)")
		candPath  = flag.String("candidate", "", "candidate bundle (.paeb) to gate and roll out (required)")
		maxPrec   = flag.Float64("max-precision-drop", promote.DefaultTolerance.MaxPrecisionDrop, "largest tolerated absolute precision drop")
		maxCov    = flag.Float64("max-coverage-drop", promote.DefaultTolerance.MaxCoverageDrop, "largest tolerated absolute coverage drop")
		jsonOut   = flag.String("json", "", "write the machine-readable diff report to this file")
		timeout   = flag.Duration("timeout", 2*time.Minute, "budget for the fleet rollout (reloads + convergence)")
	)
	flag.Parse()
	if *router == "" || *livePath == "" || *candPath == "" {
		fmt.Fprintln(os.Stderr, "paepromote: -router, -live and -candidate are required")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	tol := promote.Tolerance{MaxPrecisionDrop: *maxPrec, MaxCoverageDrop: *maxCov}
	rep, err := promote.Diff(ctx, *livePath, *candPath, *corpusDir, tol)
	if err != nil {
		fatal(err)
	}
	if *jsonOut != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("gate: live %.12s vs candidate %.12s on %d truth judgments\n",
		rep.LiveFingerprint, rep.CandidateFingerprint, rep.TruthJudgments)
	fmt.Printf("gate: overall precision %.3f -> %.3f (%+.3f), coverage %.3f -> %.3f (%+.3f)\n",
		rep.Overall.Live.Precision, rep.Overall.Candidate.Precision, rep.Overall.PrecisionDelta,
		rep.Overall.Live.Coverage, rep.Overall.Candidate.Coverage, rep.Overall.CoverageDelta)

	if !rep.Promote {
		fmt.Println("verdict: REJECT — fleet untouched")
		for _, reg := range rep.Regressions {
			fmt.Printf("  regression: %s\n", reg)
		}
		os.Exit(1)
	}
	fmt.Println("verdict: PROMOTE")

	// Backends resolve the bundle path themselves, so hand them an absolute
	// one — the loop runs the fleet on a shared filesystem.
	absCand, err := filepath.Abs(*candPath)
	if err != nil {
		fatal(err)
	}
	client := promote.NewClient(*router, nil)
	rctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	// A live fingerprint the fleet does not actually serve usually means the
	// operator diffed against the wrong artifact; say so before swapping.
	if backends, err := client.Backends(rctx); err == nil {
		for _, b := range backends {
			if b.Fingerprint != "" && b.Fingerprint != rep.LiveFingerprint && b.Fingerprint != rep.CandidateFingerprint {
				fmt.Fprintf(os.Stderr, "warning: backend %s serves fingerprint %.12s, not the -live bundle's %.12s\n",
					b.URL, b.Fingerprint, rep.LiveFingerprint)
			}
		}
	}

	ro, err := client.Promote(rctx, absCand, rep.CandidateFingerprint)
	if err != nil {
		fatal(err)
	}
	for _, rr := range ro.Reloads {
		fmt.Printf("reloaded %s: %.12s -> %.12s\n", rr.URL, rr.Old, rr.New)
	}
	fmt.Printf("promoted: fleet converged on %.12s\n", ro.Fingerprint)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
