package extract

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/bundle"
	"repro/internal/cleaning"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pos"
	"repro/internal/seed"
	"repro/internal/text"
	"repro/internal/triples"
	"repro/internal/workload"
)

// ErrNoModel: the bundle carries no usable model.
var ErrNoModel = errors.New("extract: bundle has no model")

// ErrWorkloadMismatch: a request named a workload the loaded bundle was not
// trained for. Extraction through the wrong model would not fail loudly — a
// title model happily tags detail-page sentences, just badly — so the shape
// check is the only place the mistake can surface.
var ErrWorkloadMismatch = errors.New("extract: request workload does not match bundle")

// Options configures an Extractor. The zero value serves with one worker
// per CPU and no telemetry.
type Options struct {
	// Workers bounds the per-request worker pools (sentence tagging, batch
	// document preparation); zero means one per CPU. Parallelism never
	// changes extraction output.
	Workers int
	// Obs, when non-nil, receives the extraction counters (extract.pages,
	// extract.batches, extract.sentences, extract.triples,
	// extract.veto_killed). Nil records nothing. Per-request detail goes to
	// the request's obs.Trace (carried on the context), never to a span
	// tree: a long-lived server would otherwise grow that tree by one node
	// per page for as long as it runs.
	Obs *obs.Recorder
}

// Extractor applies a frozen model bundle to unseen product pages. It is
// immutable after construction and safe for concurrent use: every request
// mints its own predictors from the shared read-only weights, so a single
// Extractor serves any number of goroutines — the deployment mode the paper
// targets once bootstrapping has converged ("on the field").
type Extractor struct {
	manifest bundle.Manifest
	wk       workload.Kind
	fp       string
	engine   Engine
	scfg     seed.Config
	veto     cleaning.VetoConfig // corpus-wide veto, for ExtractBatch
	pageVeto cleaning.VetoConfig // per-page veto: popularity rule disabled
	workers  int
	rec      *obs.Recorder
}

// New builds an Extractor from a loaded bundle. The tokenizer and PoS tagger
// are reconstructed from the bundle's language; every other inference-time
// setting (confidence threshold, veto rules, pre-processor scalars) comes
// from the manifest, so two replicas loading the same bundle extract
// identically.
func New(b *bundle.Bundle, opts Options) (*Extractor, error) {
	if b == nil || b.Model == nil {
		return nil, ErrNoModel
	}
	m := b.Manifest
	scfg := seed.Config{
		Tokenizer:      text.ForLanguage(m.Lang),
		Tagger:         pos.NewTagger(),
		AggThreshold:   m.Seed.AggThreshold,
		MinValueFreq:   m.Seed.MinValueFreq,
		TopShapes:      m.Seed.TopShapes,
		ValuesPerShape: m.Seed.ValuesPerShape,
	}
	veto := m.Veto.WithDefaults()
	pageVeto := veto
	// The popularity rule compares an entity's support against the rest of
	// the extraction corpus; a single page has no corpus, so per-page
	// extraction disables it (mirroring how the bootstrap screens its seed).
	pageVeto.PopularFraction = 1
	x := &Extractor{
		manifest: m,
		wk:       m.Workload.WithDefault(),
		fp:       b.Fingerprint(),
		engine: Engine{
			Model:         b.Model,
			MinConfidence: m.MinConfidence,
			Workers:       opts.Workers,
		},
		scfg:     scfg.WithDefaults(),
		veto:     veto,
		pageVeto: pageVeto,
		workers:  opts.Workers,
		rec:      opts.Obs,
	}
	x.rec.SetFingerprint(m.Provenance.ConfigFingerprint)
	return x, nil
}

// Open loads a bundle file and builds an Extractor from it.
func Open(path string, opts Options) (*Extractor, error) {
	b, err := bundle.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return New(b, opts)
}

// Close releases nothing: an Extractor holds only immutable weights, so it
// needs no teardown, and calling Close is optional.
func (x *Extractor) Close() {}

// Manifest returns the bundle manifest the extractor was built from.
func (x *Extractor) Manifest() bundle.Manifest { return x.manifest }

// Fingerprint returns the bundle's content address.
func (x *Extractor) Fingerprint() string { return x.fp }

// Workload returns the page shape the bundle's model was trained for.
func (x *Extractor) Workload() workload.Kind { return x.wk }

// CheckWorkload validates a request's declared workload against the bundle.
// The empty string means "whatever the bundle serves" — existing clients
// never send the field and keep working — so only an explicit mismatch is an
// error. Unknown kinds are rejected too: a typo silently treated as wildcard
// would extract through the wrong model without a trace.
func (x *Extractor) CheckWorkload(requested workload.Kind) error {
	if requested == "" {
		return nil
	}
	if !requested.Valid() {
		return fmt.Errorf("%w: unknown workload %q (bundle serves %s)", ErrWorkloadMismatch, string(requested), x.wk)
	}
	if requested.WithDefault() != x.wk {
		return fmt.Errorf("%w: request is %s, bundle serves %s", ErrWorkloadMismatch, requested.WithDefault(), x.wk)
	}
	return nil
}

// ExtractPage runs the full inference pipeline — sentence split + tokenize →
// PoS-tag → tag → span-decode → confidence filter → veto clean — over one
// product page and returns its deduplicated triples. id becomes the
// ProductID of every triple. Safe for concurrent use.
func (x *Extractor) ExtractPage(ctx context.Context, id, html string) ([]triples.Triple, error) {
	ts, sents, err := x.extractDoc(ctx, seed.Document{ID: id, HTML: html})
	obs.TraceFromContext(ctx).Event("extract.page", "page", id,
		"sentences", strconv.Itoa(sents), "triples", strconv.Itoa(len(ts)))
	if err != nil {
		return nil, err
	}
	x.rec.Add("extract.pages", 1)
	x.rec.Add("extract.sentences", int64(sents))
	x.rec.Add("extract.triples", int64(len(ts)))
	return ts, nil
}

// extractDoc is the shared single-page path: split, tag, per-page veto.
func (x *Extractor) extractDoc(ctx context.Context, doc seed.Document) ([]triples.Triple, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	sents := seed.Split(x.wk, doc, x.scfg)
	tagged, err := x.engine.TagSentences(ctx, sents)
	if err != nil {
		return nil, len(sents), err
	}
	kept, stats := cleaning.ApplyVetoFor(x.wk, tagged, x.pageVeto)
	x.rec.Add("extract.veto_killed", int64(stats.Removed()))
	return kept, len(sents), nil
}

// batchChunk is the number of documents ExtractSource pulls from the Source
// per fan-out round. A constant independent of the on-disk shard geometry,
// so extraction output never depends on how a corpus is sharded.
const batchChunk = 64

// ExtractBatch extracts triples from a set of pages in one pass. It is
// ExtractSource over a slice-backed Source; see there for the semantics.
func (x *Extractor) ExtractBatch(ctx context.Context, docs []seed.Document) ([]triples.Triple, error) {
	return x.ExtractSource(ctx, corpus.NewSliceSource(docs))
}

// ExtractSource extracts triples from a streaming corpus in one pass over
// the Source. Documents stream in bounded chunks, each chunk fans out over
// the worker pool for sentence preparation and tagging, and the veto rules
// run corpus-wide at the end — including the popularity rule, exactly as
// the bootstrap's tag stage applies them — so a batch over the training
// corpus reproduces the in-bootstrap tagger's output byte for byte. Results
// merge in document order: the output is identical for every Workers value,
// every chunk boundary, and every on-disk shard geometry. Memory is bounded
// by one chunk of prepared sentences plus the tagged triples, never by the
// page bodies. Sources implementing corpus.Instrumented count their shard
// reads (corpus.shards, corpus.bytes_read) on the extractor's recorder.
func (x *Extractor) ExtractSource(ctx context.Context, src corpus.Source) ([]triples.Triple, error) {
	if ins, ok := src.(corpus.Instrumented); ok {
		ins.Instrument(x.rec, nil)
	}
	ts, pages, sents, err := x.extractSource(ctx, src)
	obs.TraceFromContext(ctx).Event("extract.batch", "pages", strconv.Itoa(pages),
		"sentences", strconv.Itoa(sents), "triples", strconv.Itoa(len(ts)))
	if err != nil {
		return nil, err
	}
	x.rec.Add("extract.batches", 1)
	x.rec.Add("extract.pages", int64(pages))
	x.rec.Add("extract.sentences", int64(sents))
	x.rec.Add("extract.triples", int64(len(ts)))
	return ts, nil
}

func (x *Extractor) extractSource(ctx context.Context, src corpus.Source) ([]triples.Triple, int, int, error) {
	var tagged []triples.Triple
	var sentCount int
	perDoc := make([][]seed.SentenceOf, batchChunk)
	pages, err := corpus.ForEachChunk(src, batchChunk, func(chunk []seed.Document, _ int) error {
		pd := perDoc[:len(chunk)]
		if err := par.ForEach(ctx, x.workers, len(chunk), func(i int) error {
			pd[i] = seed.Split(x.wk, chunk[i], x.scfg)
			return nil
		}); err != nil {
			return err
		}
		var sents []seed.SentenceOf
		for _, ss := range pd {
			sents = append(sents, ss...)
		}
		sentCount += len(sents)
		// Tagging is per-sentence with an index-ordered merge, so tagging
		// chunk by chunk concatenates to exactly the whole-corpus result.
		ts, err := x.engine.TagSentences(ctx, sents)
		if err != nil {
			return err
		}
		tagged = append(tagged, ts...)
		return nil
	})
	if err != nil {
		return nil, pages, sentCount, err
	}
	// TagSentences dedups within its call; the corpus-wide pass restores the
	// cross-chunk dedup, so the result matches tagging every sentence in one
	// call regardless of chunk boundaries.
	kept, stats := cleaning.ApplyVetoFor(x.wk, triples.Dedup(tagged), x.veto)
	x.rec.Add("extract.veto_killed", int64(stats.Removed()))
	return kept, pages, sentCount, nil
}

// String summarises the extractor for logs.
func (x *Extractor) String() string {
	return fmt.Sprintf("extractor{model=%s lang=%s bundle=%.12s}",
		x.manifest.ModelKind, x.manifest.Lang, x.fp)
}
