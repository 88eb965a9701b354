package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/extract"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/promote"
	"repro/internal/seed"
	"repro/internal/triples"
	"repro/internal/workload"
)

// Input sizes. The detail category is the paper's Vacuum Cleaner; the
// bootstrap corpus is about 2.4× its default size so CRF training, not
// corpus I/O, sets the job time.
const (
	detailCategory = "Vacuum Cleaner"
	bootstrapPages = 1000
	bootstrapIters = 2
	// The refresh corpus: four base shards and one appended shard, so the
	// incremental run reuses four shards' seed and prep work. At 100-page
	// shards the refreshed model's label set, and with it the refresh's
	// cost, differed up to 1.7× from seed to seed; at 200 it settles.
	retrainShard = 200
	retrainBase  = 4 * retrainShard
	retrainDelta = retrainShard
	// heldOutPages are extracted with the trained or served bundle; they
	// come from a different generator seed than the training pages.
	heldOutPages = 500
	// latencyShare is how long, as a share of each job's time, the training
	// workloads then extract held-out pages with the bundle the job built.
	// Following every job, the latency samples spread over the whole run,
	// so a slow minute of the machine moves a few of them, not all.
	latencyShare = 1.0 / 3
)

// Generator seeds for appended and held-out pages, derived from the
// workload seed (which training pages use as is) so no two share a stream.
func deltaSeed(s uint64) uint64   { return s + 1<<20 }
func heldOutSeed(s uint64) uint64 { return s + 1<<21 }

func detailCat() (gen.Category, error) {
	cat, ok := gen.CategoryByName(detailCategory)
	if !ok {
		return gen.Category{}, fmt.Errorf("unknown category %q", detailCategory)
	}
	return cat, nil
}

// writeCorpus writes a generated corpus to dir the way paegen does.
func writeCorpus(ctx context.Context, dir string, cat gen.Category, wk workload.Kind, opt gen.Options, shardSize int) error {
	w, err := corpus.NewWriter(dir, corpus.WriterOptions{Name: cat.Name, Lang: cat.Lang, ShardSize: shardSize})
	if err != nil {
		return err
	}
	generate := gen.GenerateStreamCtx
	if wk == workload.Title {
		generate = gen.GenerateTitlesStreamCtx
	}
	c, err := generate(ctx, cat, opt, func(p gen.PageResult) error {
		return w.WritePage(seed.Document{ID: p.Page.ID, HTML: p.Page.HTML})
	})
	if err != nil {
		return err
	}
	w.SetWorkload(wk)
	w.SetLexicon(c.Lexicon)
	w.SetQueries(c.Queries)
	w.SetAliases(c.Aliases)
	for _, t := range c.Truth {
		if err := w.WriteTruth(t); err != nil {
			return err
		}
	}
	return w.Close()
}

// heldOut generates pages for extraction that no training run has seen.
func heldOut(cat gen.Category, wk workload.Kind, s uint64) *gen.Corpus {
	opt := gen.Options{Seed: heldOutSeed(s), Items: heldOutPages}
	if wk == workload.Title {
		return gen.GenerateTitles(cat, opt)
	}
	return gen.Generate(cat, opt)
}

// trainRun is one bootstrap over an on-disk corpus, ending with the bundle
// saved, as paerun -corpus DIR -bundle FILE does it.
type trainRun struct {
	res    *core.Result
	bundle *bundle.Bundle
	rec    *obs.Recorder // nil untraced
}

func bootstrapDir(ctx context.Context, dir, bundlePath string, cfg core.Config, tr *tracer, parent int64) (*trainRun, error) {
	out := &trainRun{}
	if tr != nil {
		out.rec = obs.New(obs.Options{NoRuntimeStats: true})
		cfg.Obs = out.rec
	}
	r, err := corpus.Open(dir)
	if err != nil {
		return nil, err
	}
	m := r.Manifest
	src := r.Source()
	defer src.Close()
	sp := tr.start("core.run", parent)
	res, err := pae.RunSource(ctx, pae.Input{Source: src, Queries: m.Queries, Lang: m.Lang, Lexicon: m.Lexicon}, cfg)
	sp.end()
	if err != nil {
		return nil, err
	}
	if !res.StopReason.Completed() {
		return nil, fmt.Errorf("bootstrap stopped: %s", res.StopReason)
	}
	if out.rec != nil {
		tr.adopt(out.rec.Snapshot().Span, sp.id())
	}
	out.res = res
	if out.bundle, err = res.Bundle(); err != nil {
		return nil, err
	}
	sp = tr.start("bundle.save", parent)
	err = out.bundle.SaveFile(bundlePath)
	sp.end()
	return out, err
}

// judge scores triples against a corpus directory's planted truth.
func judge(dir string, ts []triples.Triple) (precision, coverage float64, err error) {
	r, err := corpus.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	ec, err := r.EvalCorpus()
	if err != nil {
		return 0, 0, err
	}
	if ec == nil {
		return 0, 0, fmt.Errorf("corpus %s carries no truth", dir)
	}
	return eval.NewTruth(ec).Judge(ts).Precision(), eval.Coverage(ts, r.Manifest.Pages), nil
}

// trainBench holds what both training workloads share: the job loop, the
// bundle checks and the per-page latency of the trained model.
type trainBench struct {
	heldOut []seed.Document
	pages   int // pages each job reads

	fp         string // bundle fingerprint of the first job
	prec, cov  float64
	bundlePath string
	expected   [][]triples.Triple // held-out extraction of the first job's model
	lastRun    *trainRun          // the most recent traced job
	lastJob    int64              // and its span
}

// job is one timed operation; it returns the bundle it built.
type jobFunc func(ctx context.Context, tr *tracer, parent int64) (*trainRun, error)

// loop runs job until the deadline, timing each, and measures the trained
// model's per-page extraction latency on the held-out pages after each.
func (b *trainBench) loop(ctx context.Context, deadline time.Time, tr *tracer, m *measurement,
	reset func() error, job jobFunc, judgeDir string) error {
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := reset(); err != nil {
			return fmt.Errorf("restore inputs: %w", err)
		}
		sp := tr.start("job", 0)
		m.jobStart()
		run, err := job(ctx, tr, sp.id())
		sp.end()
		m.attempted++
		if err != nil {
			return err
		}
		m.jobDone(b.pages)
		fp := run.bundle.Fingerprint()
		if b.fp == "" {
			b.fp = fp
			if b.prec, b.cov, err = judge(judgeDir, run.res.FinalTriples()); err != nil {
				return err
			}
		} else if fp != b.fp {
			m.failed++
			fmt.Fprintf(os.Stderr, "job %d built bundle %.12s, job 1 built %.12s\n", m.attempted, fp, b.fp)
		}
		if tr != nil {
			b.lastRun, b.lastJob = run, sp.id()
		}
		jobSeconds := m.jobs[len(m.jobs)-1]
		if err := b.modelLatency(ctx, m, time.Duration(latencyShare*jobSeconds*float64(time.Second))); err != nil {
			return err
		}
	}
	return nil
}

// modelLatency loads the saved bundle and extracts the held-out pages with
// it, pass after pass for dur: the per-page cost of applying the just-trained
// model. One worker keeps goroutine hand-offs out of the figure, so it moves
// with the model's size and the engine's speed. Every pass must extract
// exactly what the first did.
func (b *trainBench) modelLatency(ctx context.Context, m *measurement, dur time.Duration) error {
	x, err := extract.Open(b.bundlePath, extract.Options{Workers: 1})
	if err != nil {
		return err
	}
	defer x.Close()
	if x.Fingerprint() != b.fp {
		return fmt.Errorf("saved bundle %.12s, trained %.12s", x.Fingerprint(), b.fp)
	}
	first := b.expected == nil
	if first {
		b.expected = make([][]triples.Triple, len(b.heldOut))
	}
	// Collect the jobs' garbage first, so every run's passes start from
	// the same heap and pay for the same collections.
	runtime.GC()
	began := time.Now()
	for pass := 0; pass == 0 || time.Since(began) < dur; pass++ {
		for i, d := range b.heldOut {
			began := time.Now()
			ts, err := x.ExtractPage(ctx, d.ID, d.HTML)
			m.lat = append(m.lat, float64(time.Since(began).Nanoseconds())/1e6)
			if err != nil {
				return err
			}
			if first && pass == 0 {
				b.expected[i] = ts
			} else if !sameTriples(ts, b.expected[i]) {
				m.failed++
				fmt.Fprintf(os.Stderr, "page %s: extraction differs between passes\n", d.ID)
			}
		}
	}
	return nil
}

func (b *trainBench) quality() (float64, float64) { return b.prec, b.cov }
func (b *trainBench) fingerprint() string         { return b.fp }

func (b *trainBench) close() {}

// layers reports the last traced job's stage spans and counters, then
// replays the held-out pages through the extract layer with its bundle.
func (b *trainBench) layers(tree *spanTree, m *measurement, out metricSet) {
	b.coreLayers(tree, out)
	if _, err := bundleLayers(context.Background(), b.bundlePath, b.heldOut, b.expected, out); err != nil {
		m.failed++
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
	}
}

func (b *trainBench) coreLayers(tree *spanTree, out metricSet) {
	if b.lastRun == nil {
		return
	}
	under := descendants(tree, b.lastJob)
	for _, stage := range []string{"seed", "prep", "train", "tag", "veto", "semantic", "relabel", "checkpoint"} {
		total := int64(0)
		for _, s := range under {
			if s.Name == stage {
				total += s.dur()
			}
		}
		out["core."+stage+"_s"] = float64(total) / 1e9
	}
	for _, s := range under {
		switch s.Name {
		case "bundle.save":
			out["bundle.save_ms"] = float64(s.dur()) / 1e6
		case "corpus.append":
			out["corpus.append_ms"] = float64(s.dur()) / 1e6
		case "promote.gate":
			out["promote.gate_ms"] = float64(s.dur()) / 1e6
		}
	}
	rep := b.lastRun.rec.Snapshot()
	res := b.lastRun.res
	out["corpus.read_mb"] = float64(rep.Counters["corpus.bytes_read"]) / (1 << 20)
	out["core.shards_reused"] = float64(res.ShardsReused)
	out["core.shards_recomputed"] = float64(res.ShardsRecomputed)
	if n := res.ShardsReused + res.ShardsRecomputed; n > 0 {
		out["core.shardcache_hit_pct"] = 100 * float64(res.ShardsReused) / float64(n)
	}
	evals := float64(rep.Counters["crf.linesearch_evals"])
	out["crf.objective_evals"] = evals
	out["crf.optimizer_iterations"] = float64(rep.Counters["crf.optimizer_iterations"])
	if evals > 0 {
		out["crf.ms_per_eval"] = out["core.train_s"] * 1e3 / evals
	}
	out["crf.features"] = rep.Gauges["crf.features"]
	veto := int64(0)
	for _, it := range res.Iterations {
		veto += int64(it.Veto.Removed())
	}
	out["cleaning.veto_killed"] = float64(veto)
	out["cleaning.semantic_killed"] = float64(rep.Counters["semantic.killed"])
}

// bundleLayers times loading the bundle at path, records its size, and
// replays pages through the extract layer with it; it returns how many
// triples the per-page veto removed.
func bundleLayers(ctx context.Context, path string, pages []seed.Document, expected [][]triples.Triple, out metricSet) (int, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	out["bundle.bytes"] = float64(st.Size())
	began := time.Now()
	bn, err := bundle.LoadFile(path)
	if err != nil {
		return 0, err
	}
	out["bundle.load_ms"] = float64(time.Since(began).Nanoseconds()) / 1e6
	return replayInto(ctx, bn, pages, expected, out)
}

// descendants returns every span below root.
func descendants(tree *spanTree, root int64) []span {
	var out []span
	var walk func(id int64)
	walk = func(id int64) {
		for _, c := range tree.children[id] {
			out = append(out, c)
			walk(c.ID)
		}
	}
	walk(root)
	return out
}

// --- bootstrap-detail ---

type bootstrapBench struct {
	trainBench
	dir string
}

func setupBootstrap(ctx context.Context, e *env) (instance, error) {
	cat, err := detailCat()
	if err != nil {
		return nil, err
	}
	root, err := e.scratch("bootstrap")
	if err != nil {
		return nil, err
	}
	b := &bootstrapBench{dir: filepath.Join(root, "corpus")}
	b.pages = bootstrapPages
	b.bundlePath = filepath.Join(root, "model.paeb")
	if err := writeCorpus(ctx, b.dir, cat, workload.DetailPage,
		gen.Options{Seed: e.seed, Items: bootstrapPages}, corpus.DefaultShardSize); err != nil {
		return nil, err
	}
	b.heldOut = docsOf(heldOut(cat, workload.DetailPage, e.seed))
	return b, nil
}

func (b *bootstrapBench) measure(ctx context.Context, deadline time.Time, tr *tracer, m *measurement) error {
	job := func(ctx context.Context, tr *tracer, parent int64) (*trainRun, error) {
		return bootstrapDir(ctx, b.dir, b.bundlePath, core.Config{Iterations: bootstrapIters}, tr, parent)
	}
	return b.loop(ctx, deadline, tr, m, func() error { return nil }, job, b.dir)
}

// --- retrain-incremental ---

type retrainBench struct {
	trainBench
	base, work string // pristine and working copies of corpus + checkpoint
	livePath   string
	delta      *gen.Corpus
	verdict    *promote.Report
}

func setupRetrain(ctx context.Context, e *env) (instance, error) {
	cat, err := detailCat()
	if err != nil {
		return nil, err
	}
	root, err := e.scratch("retrain")
	if err != nil {
		return nil, err
	}
	b := &retrainBench{
		base:     filepath.Join(root, "base"),
		work:     filepath.Join(root, "work"),
		livePath: filepath.Join(root, "live.paeb"),
	}
	b.pages = retrainBase + retrainDelta
	b.bundlePath = filepath.Join(root, "candidate.paeb")
	baseCorpus := filepath.Join(b.base, "corpus")
	if err := writeCorpus(ctx, baseCorpus, cat, workload.DetailPage,
		gen.Options{Seed: e.seed, Items: retrainBase}, retrainShard); err != nil {
		return nil, err
	}
	// The live bundle: a checkpointed bootstrap whose checkpoint and shard
	// cache every refresh starts from.
	cfg := core.Config{Iterations: bootstrapIters, Checkpoint: filepath.Join(b.base, "ckpt")}
	if _, err := bootstrapDir(ctx, baseCorpus, b.livePath, cfg, nil, 0); err != nil {
		return nil, fmt.Errorf("live bootstrap: %w", err)
	}
	b.delta = gen.Generate(cat, gen.Options{Seed: deltaSeed(e.seed), Items: retrainDelta, IDOffset: retrainBase})
	b.heldOut = docsOf(heldOut(cat, workload.DetailPage, e.seed))
	return b, nil
}

// appendDelta grows the working corpus by one shard, as paegen -append does.
func (b *retrainBench) appendDelta(dir string) error {
	w, err := corpus.OpenAppend(dir)
	if err != nil {
		return err
	}
	w.MergeQueries(b.delta.Queries)
	for _, p := range b.delta.Pages {
		if err := w.WritePage(seed.Document{ID: p.ID, HTML: p.HTML}); err != nil {
			return err
		}
	}
	for _, t := range b.delta.Truth {
		if err := w.WriteTruth(t); err != nil {
			return err
		}
	}
	return w.Close()
}

// gateTolerance scales the gate to corpus coarseness as the promote
// experiment does: one page is 100/pages coverage points.
func gateTolerance(pages int) promote.Tolerance {
	tol := promote.DefaultTolerance
	tol.MaxPrecisionDrop = max(tol.MaxPrecisionDrop, 500/float64(pages))
	tol.MaxCoverageDrop = max(tol.MaxCoverageDrop, 800/float64(pages))
	return tol
}

func (b *retrainBench) measure(ctx context.Context, deadline time.Time, tr *tracer, m *measurement) error {
	corpusDir := filepath.Join(b.work, "corpus")
	reset := func() error {
		if err := os.RemoveAll(b.work); err != nil {
			return err
		}
		return copyTree(b.base, b.work)
	}
	job := func(ctx context.Context, tr *tracer, parent int64) (*trainRun, error) {
		sp := tr.start("corpus.append", parent)
		err := b.appendDelta(corpusDir)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("append: %w", err)
		}
		cfg := core.Config{Iterations: 1, Checkpoint: filepath.Join(b.work, "ckpt"), Incremental: true}
		run, err := bootstrapDir(ctx, corpusDir, b.bundlePath, cfg, tr, parent)
		if err != nil {
			return nil, err
		}
		if !run.res.WarmStart || run.res.ShardsReused < 1 {
			return nil, fmt.Errorf("refresh did not warm-start from the shard cache (warm=%v reused=%d)",
				run.res.WarmStart, run.res.ShardsReused)
		}
		sp = tr.start("promote.gate", parent)
		rep, err := promote.Diff(ctx, b.livePath, b.bundlePath, corpusDir, gateTolerance(b.pages))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("gate: %w", err)
		}
		if b.verdict == nil {
			b.verdict = rep
		} else if !sameReport(rep, b.verdict) {
			return nil, fmt.Errorf("gate verdict differs between refreshes")
		}
		return run, nil
	}
	return b.loop(ctx, deadline, tr, m, reset, job, corpusDir)
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func docsOf(c *gen.Corpus) []seed.Document {
	docs := make([]seed.Document, len(c.Pages))
	for i, p := range c.Pages {
		docs[i] = seed.Document{ID: p.ID, HTML: p.HTML}
	}
	return docs
}

// sameReport compares two gate reports by their JSON form.
func sameReport(a, b *promote.Report) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}
