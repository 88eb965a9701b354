package core

import (
	"bytes"
	"context"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/crf"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/obs"
)

// The observability assertions are structural (span shapes, counter
// consistency), not about model quality, so these tests run a deliberately
// small corpus and optimiser budget: the full core suite under -race on one
// CPU is close to the go test timeout already.
func obsCorpus(t *testing.T) Corpus {
	t.Helper()
	return corpusFor(generated(t, gen.VacuumCleaner(), 9, 60))
}

func obsConfig() Config {
	return Config{Iterations: 2, CRF: crf.Config{MaxIter: 12}}
}

// findSpans walks the report's span tree and returns every span with the
// given name.
func findSpans(rep *obs.Report, name string) []*obs.SpanReport {
	var out []*obs.SpanReport
	var walk func(s *obs.SpanReport)
	walk = func(s *obs.SpanReport) {
		if s.Name == name {
			out = append(out, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	if rep.Span != nil {
		walk(rep.Span)
	}
	return out
}

// TestRunReportWellFormed runs the full pipeline once with a live recorder,
// checkpointing, and the streaming hook, and checks the whole report end to
// end: a closed span tree shaped run → seed + iterations → stages, the
// triple funnel matching the IterationResults, the CRF training trajectory,
// checkpoint spans carrying path/byte attrs, and OnIteration firing once
// per cycle in order.
func TestRunReportWellFormed(t *testing.T) {
	dir := t.TempDir()
	rec := obs.New(obs.Options{})
	cfg := obsConfig()
	cfg.Obs = rec
	cfg.Checkpoint = dir
	var seen []int
	cfg.OnIteration = func(ir IterationResult) { seen = append(seen, ir.Iteration) }
	res, err := New(cfg).Run(obsCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 2 {
		t.Fatalf("iterations = %d, want 2 (%s)", len(res.Iterations), res.Describe())
	}
	rep := rec.Snapshot()
	rep.Completed = res.StopReason.Completed()

	if open := rep.OpenSpans(); len(open) != 0 {
		t.Fatalf("open spans after a completed run: %v", open)
	}
	if rep.Span == nil || rep.Span.Name != "run" || rep.Span.Status != obs.StatusOK {
		t.Fatalf("root span = %+v", rep.Span)
	}
	if rep.Fingerprint == "" {
		t.Fatal("report has no config fingerprint")
	}
	if n := len(findSpans(rep, faultinject.StageSeed)); n != 1 {
		t.Fatalf("seed spans = %d, want 1", n)
	}
	iters := findSpans(rep, "iteration")
	if len(iters) != 2 {
		t.Fatalf("iteration spans = %d, want 2", len(iters))
	}
	for i, isp := range iters {
		if isp.Status != obs.StatusOK {
			t.Fatalf("iteration %d status = %q", i+1, isp.Status)
		}
		names := make(map[string]bool)
		for _, c := range isp.Children {
			names[c.Name] = true
		}
		for _, want := range []string{
			faultinject.StageTrain, faultinject.StageTag,
			faultinject.StageVeto, faultinject.StageSemantic, "relabel",
		} {
			if !names[want] {
				t.Fatalf("iteration %d missing %q span; has %v", i+1, want, names)
			}
		}
	}
	// Runtime sampling is on by default: the run span must carry it.
	if rep.Span.GoroutinesEnd == 0 || rep.Span.HeapEndBytes == 0 {
		t.Fatalf("runtime stats missing from run span: %+v", rep.Span)
	}

	funnel := rep.Funnel()
	if len(funnel) != len(res.Iterations) {
		t.Fatalf("funnel rows = %d, want %d", len(funnel), len(res.Iterations))
	}
	for i, row := range funnel {
		ir := res.Iterations[i]
		if row.Iteration != ir.Iteration ||
			row.Tagged != int64(ir.TaggedCandidates) ||
			row.VetoKilled != int64(ir.Veto.Removed()) ||
			row.SemanticKilled != int64(ir.SemanticRemoved) ||
			row.Triples != int64(len(ir.Triples)) {
			t.Fatalf("funnel row %d = %+v, want iteration result %+v", i, row, ir)
		}
	}

	if rep.Counters["seed.pairs"] != int64(len(res.SeedPairs)) {
		t.Fatalf("seed.pairs = %d, want %d", rep.Counters["seed.pairs"], len(res.SeedPairs))
	}
	if rep.Counters["seed.raw_candidates"] == 0 || rep.Counters["seed.tables_hit"] == 0 {
		t.Fatalf("seed counters missing: %+v", rep.Counters)
	}
	// The CRF training trajectory: one loss series per bootstrap iteration,
	// strictly decreasing from start to end (it is a convex optimisation).
	for _, scope := range []string{"iter01", "iter02"} {
		loss := rep.Series["crf."+scope+".loss"]
		if len(loss) == 0 {
			t.Fatalf("no crf.%s.loss series; have %v", scope, seriesNames(rep))
		}
		if last := loss[len(loss)-1].Value; last >= loss[0].Value {
			t.Fatalf("crf.%s.loss did not decrease: first %v last %v", scope, loss[0].Value, last)
		}
		if len(rep.Series["crf."+scope+".grad_norm"]) != len(loss) {
			t.Fatalf("grad_norm series length mismatch for %s", scope)
		}
	}
	if rep.Counters["crf.linesearch_evals"] == 0 {
		t.Fatal("no line-search evaluations recorded")
	}
	if rep.Gauges["crf.features"] == 0 || rep.Gauges["crf.labels"] < 2 {
		t.Fatalf("crf alphabet gauges missing: %+v", rep.Gauges)
	}

	// Each iteration's checkpoint write shows up in the span tree with its
	// destination path and byte count matching the file on disk.
	ckpts := findSpans(rep, faultinject.StageCheckpoint)
	if len(ckpts) != 2 {
		t.Fatalf("checkpoint spans = %d, want 2", len(ckpts))
	}
	for i, sp := range ckpts {
		if sp.Status != obs.StatusOK {
			t.Fatalf("checkpoint span %d status = %q", i, sp.Status)
		}
		path, bytesAttr := sp.Attrs["path"], sp.Attrs["bytes"]
		if !strings.HasPrefix(path, dir) || !strings.HasSuffix(path, ".ckpt") {
			t.Fatalf("checkpoint span path attr = %q", path)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("checkpoint span names a missing file: %v", err)
		}
		if want := strconv.FormatInt(st.Size(), 10); bytesAttr != want {
			t.Fatalf("bytes attr %s != file size %s", bytesAttr, want)
		}
	}
	if rec.Counter("checkpoint.saves") != 2 {
		t.Fatalf("checkpoint.saves = %d", rec.Counter("checkpoint.saves"))
	}

	// The streaming hook fired once per completed cycle, in order.
	if len(seen) != len(res.Iterations) {
		t.Fatalf("OnIteration fired %d times for %d iterations", len(seen), len(res.Iterations))
	}
	for i, it := range seen {
		if it != i+1 {
			t.Fatalf("OnIteration order = %v", seen)
		}
	}
}

func seriesNames(rep *obs.Report) []string {
	var names []string
	for k := range rep.Series {
		names = append(names, k)
	}
	return names
}

// TestSpansClosedOnPanicAndCancel reuses the fault-injection harness as a
// span-closure fixture: whatever kills an iteration, the snapshot taken
// afterwards contains no open span and the failed spans carry the status
// matching the StopReason taxonomy.
func TestSpansClosedOnPanicAndCancel(t *testing.T) {
	c := obsCorpus(t)

	t.Run("panic", func(t *testing.T) {
		rec := obs.New(obs.Options{})
		cfg := obsConfig()
		cfg.Obs = rec
		cfg.FaultInjector = faultinject.New(
			faultinject.Fault{Stage: faultinject.StageTag, Call: 1, Kind: faultinject.Panic})
		res, err := New(cfg).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if res.StopReason.Completed() {
			t.Fatal("fault not injected")
		}
		rep := rec.Snapshot()
		if open := rep.OpenSpans(); len(open) != 0 {
			t.Fatalf("open spans after contained panic: %v", open)
		}
		tags := findSpans(rep, faultinject.StageTag)
		if len(tags) != 1 || tags[0].Status != obs.StatusPanic {
			t.Fatalf("tag spans = %+v", tags)
		}
		iters := findSpans(rep, "iteration")
		if len(iters) != 1 || iters[0].Status != obs.StatusPanic {
			t.Fatalf("iteration spans = %+v", iters)
		}
		if rep.Span.Status != obs.StatusPanic {
			t.Fatalf("run span status = %q, want panic", rep.Span.Status)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rec := obs.New(obs.Options{})
		cfg := obsConfig()
		cfg.Obs = rec
		cfg.FaultInjector = faultinject.New(
			faultinject.Fault{Stage: faultinject.StageTag, Call: 1, Kind: faultinject.Cancel, Cancel: cancel})
		res, err := New(cfg).RunContext(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if res.StopReason.Completed() {
			t.Fatal("fault not injected")
		}
		rep := rec.Snapshot()
		if open := rep.OpenSpans(); len(open) != 0 {
			t.Fatalf("open spans after cancellation: %v", open)
		}
		tags := findSpans(rep, faultinject.StageTag)
		if len(tags) != 1 || tags[0].Status != obs.StatusCanceled {
			t.Fatalf("tag spans = %+v", tags)
		}
		if rep.Span.Status != obs.StatusCanceled {
			t.Fatalf("run span status = %q, want canceled", rep.Span.Status)
		}
	})

	t.Run("injected-error", func(t *testing.T) {
		rec := obs.New(obs.Options{})
		cfg := obsConfig()
		cfg.Obs = rec
		cfg.FaultInjector = faultinject.New(
			faultinject.Fault{Stage: faultinject.StageTrain, Call: 1, Kind: faultinject.Error})
		if _, err := New(cfg).Run(c); err != nil {
			t.Fatal(err)
		}
		rep := rec.Snapshot()
		if open := rep.OpenSpans(); len(open) != 0 {
			t.Fatalf("open spans after injected error: %v", open)
		}
		trains := findSpans(rep, faultinject.StageTrain)
		if len(trains) != 1 || trains[0].Status != obs.StatusError {
			t.Fatalf("train spans = %+v", trains)
		}
	})
}

// TestResumeWarnsOnSkippedCheckpoint corrupts the newest checkpoint: resume
// still succeeds by falling back, but now logs a warning naming the skipped
// file — previously this fallback was silent.
func TestResumeWarnsOnSkippedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	c := obsCorpus(t)
	cfg := obsConfig()
	cfg.Checkpoint = dir
	if _, err := New(cfg).Run(c); err != nil {
		t.Fatal(err)
	}
	// Plant a truncated "newer" checkpoint that sorts after the real ones.
	if err := os.WriteFile(checkpointPath(dir, 99), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	rec := obs.New(obs.Options{Logger: logger})
	cfg2 := obsConfig()
	cfg2.Checkpoint = dir
	cfg2.Resume = true
	cfg2.Obs = rec
	res, err := New(cfg2).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StopReason.Completed() {
		t.Fatalf("resume failed: %s", res.Describe())
	}
	logs := buf.String()
	if !strings.Contains(logs, "skipping unreadable checkpoint") ||
		!strings.Contains(logs, "iter-099.ckpt") {
		t.Fatalf("no warning about the skipped checkpoint; logs:\n%s", logs)
	}
	// The resume itself is visible in the span tree.
	rep := rec.Snapshot()
	loads := findSpans(rep, "checkpoint.load")
	if len(loads) != 1 || loads[0].Status != obs.StatusOK {
		t.Fatalf("checkpoint.load spans = %+v", loads)
	}
	if loads[0].Attrs["resumed_iterations"] != "2" {
		t.Fatalf("resumed_iterations attr = %q, want 2", loads[0].Attrs["resumed_iterations"])
	}
}
