// Package core implements the paper's primary contribution: the end-to-end
// bootstrapping Product Attribute Extraction pipeline of Figure 1. It wires
// the pre-processor (internal/seed), the interchangeable sequence taggers
// (internal/crf, internal/lstm), and the syntactic + semantic cleaning
// modules (internal/cleaning) into the N-iteration Tagger–Cleaner cycle, and
// exposes every ablation toggle the paper evaluates.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"

	"repro/internal/bundle"
	"repro/internal/cleaning"
	"repro/internal/corpus"
	"repro/internal/crf"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/lstm"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/seed"
	"repro/internal/tagger"
	"repro/internal/text"
	"repro/internal/triples"
	"repro/internal/word2vec"
	"repro/internal/workload"
)

// ModelKind selects the machine-learning method of the Tagger module.
type ModelKind int

// The two methods the paper evaluates.
const (
	CRF ModelKind = iota
	RNN
)

// String returns the paper's name for the model kind.
func (k ModelKind) String() string {
	if k == RNN {
		return "RNN"
	}
	return "CRF"
}

// Corpus is the in-memory pipeline input: product pages and the user query
// log. The pipeline knows nothing about how they were produced. Large
// corpora should use Input and RunSource instead, which stream documents
// from a corpus.Source and never require the page set in memory.
type Corpus struct {
	Documents []seed.Document
	Queries   []string
	Lang      string // "ja" or "de"; selects tokenizer
}

// Input is the streaming pipeline input: documents arrive one at a time
// through a corpus.Source (an on-disk sharded corpus, an in-memory slice,
// anything implementing the iterator), so the bootstrap's memory is bounded
// by its working set — one document chunk, one prepared-sentence shard —
// rather than by corpus size.
type Input struct {
	Source  corpus.Source
	Queries []string
	Lang    string // "ja" or "de"; selects tokenizer
	// Lexicon is the distant-supervision seed for the title workload: known
	// <attribute, value> pairs matched against the titles in place of
	// dictionary-table harvesting (Config.Workload selects the path).
	// Ignored on the detail-page path.
	Lexicon []seed.LexiconEntry
}

// Config holds every knob of the system. The zero value (plus a Lang) is the
// paper's full configuration: CRF, 5 iterations, diversification on, both
// cleaning modules on. Boolean fields are phrased as Disable* so that the
// zero value means "paper default".
type Config struct {
	Iterations int       // bootstrap cycles (default 5, the paper's stop criterion)
	Model      ModelKind // CRF (default) or RNN
	CRF        crf.Config
	LSTM       lstm.Config
	Seed       seed.Config
	Veto       cleaning.VetoConfig
	Semantic   cleaning.SemanticConfig

	// Workload selects the page shape the pipeline processes. The zero value
	// means workload.DetailPage — the paper's scenario and the behaviour of
	// every pre-refactor run — so existing configurations keep their meaning
	// byte for byte. workload.Title switches seeding to distant supervision
	// from Input.Lexicon (titles have no dictionary tables), prepares each
	// document as one sentence-less token line, and gates the page-shape veto
	// rules off. The kind is stamped into checkpoints and bundles, so a
	// resume or a serving replica can never silently cross workloads.
	Workload workload.Kind

	// Parallelism bounds the worker pools of every parallel stage: corpus
	// preparation, initial labeling, tagging, relabeling, and — unless the
	// model configs set their own Workers — the CRF gradient and LSTM
	// mini-batch evaluation. Zero means one worker per CPU. Every pool
	// reduces its results in input order, so the pipeline's outputs
	// (triples, checkpoints, model artifacts) are byte-identical for every
	// Parallelism value: the knob trades wall-clock for cores, never
	// determinism. It is excluded from the configuration fingerprint for the
	// same reason.
	Parallelism int

	// Spill, when non-empty, is a directory beneath which the prep stage
	// spills the prepared (tokenized and PoS-tagged) corpus as bounded gob
	// shards instead of holding every sentence in memory. Each downstream
	// pass — tagging, relabeling, the per-iteration embedding retraining —
	// then streams the shards back one at a time, so resident memory scales
	// with SpillSentences rather than corpus size. Spilling never changes
	// outputs: the streamed passes replay the identical sentence order. The
	// shard files are private and removed when the run ends; like
	// Parallelism, Spill is excluded from the configuration fingerprint.
	Spill string
	// SpillSentences is the number of prepared sentences per spill shard
	// (default 2048). Ignored without Spill.
	SpillSentences int

	// Ablation toggles (Table IV).
	DisableDiversification   bool // "-div"
	DisableSyntacticCleaning bool // "-synt"
	DisableSemanticCleaning  bool // "-sem"

	// AttrFilter, when non-empty, restricts the model to a subset of
	// attributes (representative surface names) — the specialised models of
	// §VIII-D. Empty means the single global model.
	AttrFilter []string

	// Combine, when non-nil, ignores Model and instead trains both the CRF
	// and the RNN every iteration, combining their predictions with the
	// given mode — the model-combination extension the paper's conclusion
	// proposes. Intersection trades coverage for precision; Union the
	// reverse.
	Combine *tagger.EnsembleMode

	// MinConfidence, when positive, drops tagged spans whose least-certain
	// token falls below this model confidence (CRF posterior marginal, RNN
	// softmax probability) before cleaning. It is a third precision lever
	// next to the veto rules and the semantic filter. Ignored when the
	// model cannot report confidences (ensembles).
	MinConfidence float64

	// Oracle, when non-nil, reviews each iteration's cleaned triples before
	// they become the next training set and returns the subset to keep.
	// This is the integration point for the human-in-the-loop correction
	// the paper's §VIII suggests ("correcting the output manually"): a few
	// reviewed triples per iteration stop errors from snowballing. The
	// experiment harness plugs the referee in here to quantify the ceiling.
	Oracle func([]triples.Triple) []triples.Triple

	// Checkpoint, when non-empty, is a directory where the pipeline writes
	// an iteration-granular checkpoint (trained model + cumulative triples
	// + stats) after every completed Tagger–Cleaner cycle. A failed
	// checkpoint write is contained: it is recorded in the iteration's
	// Errors and the run continues.
	Checkpoint string
	// Resume, with Checkpoint set, continues a previously interrupted run
	// from its last completed iteration instead of starting over. The
	// checkpoint must have been written by the same configuration
	// (ErrCheckpointMismatch otherwise); the resumed run's final triples
	// are identical to an uninterrupted run's.
	Resume bool
	// Incremental, with Checkpoint set, re-bootstraps from a checkpoint
	// whose corpus is a strict shard-prefix of the current one — the
	// delta-ingestion case, where the corpus grew by append since the
	// checkpointed run. The bootstrap then warm-starts: iterations restart
	// at 1 over the full grown corpus, but the initial training set is
	// relabeled from the checkpoint's final triples merged with the new
	// seed, instead of from the seed alone. Without Incremental a grown
	// corpus surfaces as a typed ErrCorpusGrown.
	//
	// The warm run's iteration schedule may differ from the checkpointed
	// bootstrap's — the checkpoint's triples are consumed as labels, valid
	// under any schedule, so a long cold bootstrap can be refreshed with a
	// short warm one. Every other configuration knob must still match the
	// checkpoint exactly.
	//
	// Independently of warm starting, a checkpointed run over a content-
	// addressed corpus reuses the per-shard seed/prep cache for every shard
	// whose content address and derivation key match a previous run's —
	// see Result.ShardsReused. Cache reuse never changes any output byte.
	Incremental bool

	// Obs, when non-nil, receives the run's telemetry: a span tree
	// (run → iteration → stage) with wall-clock and memory deltas, the
	// triple-funnel counters, and the per-iteration training trajectories.
	// The nil default is a no-op recorder — instrumentation then costs one
	// nil check per hook, so production hot paths are unaffected.
	Obs *obs.Recorder

	// OnIteration, when non-nil, is invoked synchronously after every
	// completed Tagger–Cleaner cycle with that cycle's result (checkpoint
	// errors included), letting callers stream progress from long runs —
	// cmd/paerun prints per-iteration precision/coverage through it. It is
	// not called for iterations restored from a checkpoint.
	OnIteration func(IterationResult)

	// FaultInjector, when non-nil, deterministically forces failures at
	// named pipeline stages — the chaos-testing hook behind the
	// fault-tolerance test-suite. Nil in production.
	FaultInjector *faultinject.Injector
}

// SeedOnly is the Iterations value that runs the pre-processor but no
// bootstrap cycle, used to evaluate the seed in isolation (Table I).
const SeedOnly = -1

func (c Config) withDefaults(lang string) Config {
	if c.Iterations == 0 {
		c.Iterations = 5
	}
	if c.Iterations < 0 {
		c.Iterations = 0
	}
	if c.Seed.Tokenizer == nil {
		c.Seed.Tokenizer = text.ForLanguage(lang)
	}
	c.Seed = c.Seed.WithDefaults()
	c.Veto = c.Veto.WithDefaults()
	if c.Semantic.TokenizeValue == nil {
		tok := c.Seed.Tokenizer
		c.Semantic.TokenizeValue = func(s string) []string {
			return text.Texts(tok.Tokenize(s))
		}
	}
	c.Semantic = c.Semantic.WithDefaults()
	if c.Parallelism <= 0 {
		c.Parallelism = par.Workers(0)
	}
	// One knob rules them all: the model trainers inherit the pipeline's
	// parallelism unless their own Workers was set explicitly, so core and
	// the model packages can never disagree about the worker budget.
	if c.CRF.Workers == 0 {
		c.CRF.Workers = c.Parallelism
	}
	if c.LSTM.Workers == 0 {
		c.LSTM.Workers = c.Parallelism
	}
	return c
}

// IterationResult captures one Tagger–Cleaner cycle.
type IterationResult struct {
	Iteration int
	// Triples is the cleaned cumulative triple set after this cycle,
	// including the seed triples from dictionary tables.
	Triples []triples.Triple
	// TaggedCandidates is the number of raw triples the model proposed.
	TaggedCandidates int
	// Veto reports what the syntactic cleaning removed.
	Veto cleaning.VetoStats
	// SemanticRemoved is the number of triples dropped by drift filtering.
	SemanticRemoved int
	// TrainingSequences is the size of the labeled dataset the model of
	// this iteration was trained on.
	TrainingSequences int
	// Errors lists faults that were contained without aborting the
	// iteration (for example a failed checkpoint write). An aborting fault
	// is recorded in Result.StopReason instead.
	Errors []string
}

// Result is the full pipeline output.
type Result struct {
	// RawCandidates are the dictionary-table pairs before any processing.
	RawCandidates []seed.Candidate
	// SeedPairs are the candidates after aggregation, value cleaning and
	// (unless disabled) diversification — the paper's "complete_cc".
	SeedPairs []seed.Candidate
	// AttrRep maps surface attribute names to their representative.
	AttrRep map[string]string
	// Attributes lists the representative attribute names being modeled.
	Attributes []string
	// SeedTriples are the table-sourced triples (iteration 0 output).
	SeedTriples []triples.Triple
	// Iterations holds one entry per completed bootstrap cycle.
	Iterations []IterationResult
	// StopReason records why the run ended before completing every
	// configured iteration; its zero value means the run completed. A
	// degenerate training set, a model divergence, a contained stage panic
	// or a cancellation all land here — the completed iterations above
	// remain valid partial results.
	StopReason StopReason

	// ShardsReused and ShardsRecomputed report the incremental shard
	// cache's work split: how many corpus shards' seed/prep derivations
	// were replayed from a previous checkpointed run versus computed fresh.
	// Both stay zero when the cache is inactive (no Checkpoint, or a source
	// without content addresses).
	ShardsReused     int
	ShardsRecomputed int
	// WarmStart reports that the run re-bootstrapped from a checkpoint of a
	// shard-prefix of this corpus (Config.Incremental over a grown corpus):
	// iteration numbering restarted at 1, with the initial training set
	// relabeled from the checkpoint's final triples.
	WarmStart bool

	// finalModel is the trained model of the last completed iteration —
	// the weights Bundle() freezes. Nil when no iteration completed.
	finalModel tagger.Model
	// bundleCfg is the post-defaults configuration of the run, kept so
	// Bundle() can record the inference-time settings and provenance.
	bundleCfg Config
	// lang is the corpus language the run was configured with.
	lang string
	// corpusProv is the corpus state the run trained on, recorded only for
	// checkpointed runs over a content-addressed source; Bundle() stamps it
	// into the manifest so the artifact names the corpus it saw.
	corpusProv bundle.CorpusProvenance
}

// Err returns the error that stopped the run early, or nil when it
// completed. It is a convenience for callers that treat any early stop as a
// failure.
func (r *Result) Err() error { return r.StopReason.Err }

// FinalTriples returns the triple set after the last completed iteration,
// or the seed triples when no iteration ran.
func (r *Result) FinalTriples() []triples.Triple {
	if len(r.Iterations) == 0 {
		return r.SeedTriples
	}
	return r.Iterations[len(r.Iterations)-1].Triples
}

// Pipeline runs the Figure-1 algorithm. Construct with New, then call Run.
type Pipeline struct {
	cfg Config
}

// New validates the configuration and returns a Pipeline.
func New(cfg Config) *Pipeline { return &Pipeline{cfg: cfg} }

// Run executes the full bootstrap on the corpus. It is RunContext with a
// background context.
func (p *Pipeline) Run(c Corpus) (*Result, error) {
	return p.RunContext(context.Background(), c)
}

// prepChunk is the number of documents each streaming pass pulls from the
// Source before fanning them out over the worker pool. It is a constant —
// never derived from the on-disk shard geometry — so the processing order,
// and therefore every output, is invariant of how a corpus is sharded.
const prepChunk = 64

// runState carries one run through its stages: the loop-invariant inputs,
// what the seed and prep stages derive from the corpus, and the labeled
// dataset that each iteration rewrites — so every stage is one function with
// one span to close.
type runState struct {
	cfg     Config
	in      Input
	wk      workload.Kind
	fp      string
	res     *Result
	rec     *obs.Recorder
	runSpan *obs.Span
	// iter is the Tagger–Cleaner cycle in progress; 0 before the loop.
	iter int

	// ident names the corpus in checkpoints. cache memoizes per-shard
	// seed/prep work; it is nil unless the run is checkpointed over a
	// content-addressed source.
	ident corpusIdent
	cache *shardCache
	// complete is the seed (the paper's complete_cc) that labels the
	// initial training set.
	complete []seed.Candidate
	prep     prepared
	dataset  []tagger.Sequence
}

// RunContext executes the full bootstrap on the in-memory corpus under ctx.
// It is RunSource over a slice-backed Source; see RunSource for the failure
// semantics.
func (p *Pipeline) RunContext(ctx context.Context, c Corpus) (*Result, error) {
	if len(c.Documents) == 0 {
		return nil, ErrNoDocuments
	}
	return p.RunSource(ctx, Input{
		Source:  corpus.NewSliceSource(c.Documents),
		Queries: c.Queries,
		Lang:    c.Lang,
	})
}

// RunSource executes the full bootstrap on a streaming corpus under ctx. The
// Source is read in two passes — seed discovery, then corpus preparation —
// and is never materialised: memory is bounded by the prepared-sentence
// working set (one spill shard with Config.Spill set), not by corpus size.
// The caller retains ownership of the Source and closes it after the run.
//
// Output is byte-identical to RunContext over the same document sequence,
// for every shard geometry and every Parallelism value.
//
// Failure semantics: pre-bootstrap failures (empty corpus, no usable seed, a
// panic in the pre-processor, cancellation before the first cycle) return a
// typed non-nil error. Once the Tagger–Cleaner cycle has started, failures
// no longer surface as errors — a degenerate training set, a model
// divergence, a contained stage panic or a cancellation ends the loop,
// leaving the completed iterations in the Result and the typed cause in
// Result.StopReason. Iterations are atomic: an aborted cycle contributes
// nothing, so FinalTriples always reflects the last fully cleaned state.
//
// With Config.Obs set, the run emits a span per stage; spans are closed on
// every exit path — including contained panics and cancellations — so a
// report snapshot taken after RunSource returns never contains open spans.
// Sources that implement corpus.Instrumented additionally report per-shard
// reads (corpus.shards, corpus.bytes_read) under the run span.
func (p *Pipeline) RunSource(ctx context.Context, in Input) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if in.Source == nil {
		return nil, ErrNoDocuments
	}
	cfg := p.cfg.withDefaults(in.Lang)
	cfg.Semantic.Obs = cfg.Obs
	rec := cfg.Obs
	wk := cfg.Workload.WithDefault()
	if !wk.Valid() {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorkload, cfg.Workload)
	}

	runSpan := rec.StartRun("run")
	runSpan.SetAttr("model", cfg.Model.String())
	runSpan.SetAttrInt("iterations", int64(cfg.Iterations))
	if wk != workload.DetailPage {
		// Recorded only off the default path, so detail-page run reports stay
		// byte-identical to pre-refactor output.
		runSpan.SetAttr("workload", wk.String())
	}
	fp := cfg.fingerprint()
	rec.SetFingerprint(fp)
	if ins, ok := in.Source.(corpus.Instrumented); ok {
		ins.Instrument(rec, runSpan)
	}
	defer func() {
		stopErr := err
		if res != nil && res.StopReason.Err != nil {
			stopErr = res.StopReason.Err
		}
		runSpan.EndStatus(spanStatus(stopErr), stopErr)
	}()

	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	res = &Result{bundleCfg: cfg, lang: in.Lang}
	st := &runState{cfg: cfg, in: in, wk: wk, fp: fp, res: res, rec: rec, runSpan: runSpan}
	defer func() {
		if st.prep != nil {
			st.prep.close()
		}
	}()
	st.openCorpus()
	if err := st.seedStage(ctx); err != nil {
		return res, err
	}
	if err := st.prepStage(ctx); err != nil {
		return res, err
	}
	startIter, err := st.loadStage(ctx)
	if err != nil {
		return res, err
	}
	for iter := startIter; iter <= cfg.Iterations; iter++ {
		if stop := st.iteration(ctx, iter); stop {
			break
		}
	}
	return res, nil
}

// stage runs fn as one guarded pipeline stage in a child span of parent
// (see inSpan) and records a failure as the run's StopReason, attributed to
// the stage name and the cycle in progress. Every stage whose failure stops
// the run goes through here.
func (st *runState) stage(parent *obs.Span, name string, fn func(sp *obs.Span) error) error {
	err := inSpan(parent, st.cfg.FaultInjector, name, fn)
	if err != nil {
		st.res.StopReason = StopReason{Stage: name, Iteration: st.iter, Err: err}
	}
	return err
}

// inSpan runs fn behind guard (panic isolation, fault injection at name) in
// a child span of parent named name, whose close status mirrors the guard's
// outcome (ok / error / panic / canceled). The span is handed to fn so a
// stage can attach attributes (worker counts, batch sizes) without racing
// the close.
func inSpan(parent *obs.Span, inj *faultinject.Injector, name string, fn func(sp *obs.Span) error) error {
	sp := parent.Child(name)
	err := guard(inj, name, func() error { return fn(sp) })
	sp.EndStatus(spanStatus(err), err)
	return err
}

// openCorpus records what a content-addressed source says about itself. Its
// per-shard SHA list and generation counter ride the checkpoint, classifying
// a later corpus as grown-by-append or incompatible. A checkpointed run also
// opens the shard cache, which memoizes per-shard seed/prep work so a
// grown-corpus re-bootstrap recomputes only the appended shards.
func (st *runState) openCorpus() {
	st.ident.stamp.Shards = -1
	ca, ok := st.in.Source.(corpus.ContentAddressed)
	if !ok {
		return
	}
	infos := ca.ShardInfos()
	st.ident.stamp.Shards = len(infos)
	st.ident.generation = ca.Generation()
	for _, si := range infos {
		st.ident.shardSHAs = append(st.ident.shardSHAs, si.SHA256)
	}
	if st.cfg.Checkpoint != "" {
		// The cache key blanks the iteration count: seed discovery and prep
		// are corpus passes whose output the schedule never shapes, so a
		// 1-iteration warm refresh may reuse a 5-iteration bootstrap's shard
		// work.
		st.cache = openShardCache(st.cfg.Checkpoint,
			cacheKeyOf(fingerprintSansIters(st.fp), st.in.Lang, st.in.Lexicon), infos, st.rec)
	}
}

// walk is the bootstrap's one read of the Source. It streams every document
// after the shard cache's reused prefix (all of them without a cache) to fn
// in prepChunk-bounded chunks, in corpus order, and returns how many it
// read. It always reads on to io.EOF, so the source verifies, counts and
// closes every shard it crosses, the final one included; a failed walk
// rewinds the source, which closes the shard it stopped in.
//
// With a cache, chunks never straddle a content shard, and shardEnd(i) runs
// once the source has read past shard i's last page — that is, once the
// shard has passed its fingerprint check — so the cache stages and commits
// work only for verified shards. Discovery and preparation are strictly
// per-document, so the shard-aligned chunking yields the same outputs as
// the layout-blind chunking of an uncached walk.
func (st *runState) walk(fn func(chunk []seed.Document) error, shardEnd func(i int)) (docs int, err error) {
	src := st.in.Source
	defer func() {
		if err != nil {
			_ = src.Reset() // only to close the open shard; err is the failure to report
		}
	}()
	var shards []corpus.ShardInfo
	shard := 0
	if st.cache != nil {
		shards, shard = st.cache.infos, st.cache.prefix
		err = src.(corpus.ContentAddressed).SeekShard(shard)
	} else {
		err = src.Reset()
	}
	if err != nil {
		return 0, err
	}
	// left counts the pages still due from the current shard; it is
	// negative when no shard is tracked, so only a tracked shard ends.
	due := func() int {
		if shard < len(shards) {
			return shards[shard].Pages
		}
		return -1
	}
	left := due()
	chunk := make([]seed.Document, 0, prepChunk)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		err := fn(chunk)
		chunk = chunk[:0]
		return err
	}
	for {
		d, err := src.Next()
		if err != nil && err != io.EOF {
			return docs, err
		}
		for left == 0 {
			if err := flush(); err != nil {
				return docs, err
			}
			shardEnd(shard)
			shard++
			left = due()
		}
		if err == io.EOF {
			return docs, flush()
		}
		chunk = append(chunk, d)
		docs, left = docs+1, left-1
		if len(chunk) == prepChunk {
			if err := flush(); err != nil {
				return docs, err
			}
		}
	}
}

// seedStage is the pre-processor (Figure 1, lines 1–5) and the first pass
// over the Source: dictionary-table candidates — for titles, lexicon matches
// — are discovered chunk by chunk, then aggregated, cleaned and diversified
// into the seed. With checkpointing on, the same pass hashes the document
// stream into the corpus stamp that guards resumes against a changed corpus.
// A panic on malformed field HTML becomes a typed error, not a crash.
func (st *runState) seedStage(ctx context.Context) error {
	cfg, res, rec, scfg := st.cfg, st.res, st.rec, st.cfg.Seed
	if err := st.stage(st.runSpan, faultinject.StageSeed, func(*obs.Span) error {
		// The title workload seeds by distant supervision: lexicon values
		// are matched against the titles in place of dictionary-table
		// harvesting. The matcher builds once, outside the walk.
		discover := seed.DiscoverCandidates
		if st.wk == workload.Title {
			if len(st.in.Lexicon) == 0 {
				return fmt.Errorf("%w: title workload needs a seed lexicon", ErrNoSeed)
			}
			discover = seed.NewTitleMatcher(st.in.Lexicon, scfg).DiscoverTitleCandidates
		}
		var h hash.Hash
		if cfg.Checkpoint != "" {
			h = sha256.New()
		}
		var raw []seed.Candidate
		docs := 0
		if st.cache != nil {
			// The reused prefix replays from the cache with no shard reads;
			// the corpus stamp hash resumes from the cached mid-stream state.
			if err := st.cache.replaySeed(h, func(e *shardCacheEntry) {
				raw = append(raw, e.Raw...)
				docs += e.Docs
			}); err != nil {
				return err
			}
		}
		shardStart := len(raw)
		n, err := st.walk(func(chunk []seed.Document) error {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if h != nil {
				for _, d := range chunk {
					io.WriteString(h, d.ID)
					h.Write([]byte{0})
					io.WriteString(h, d.HTML)
					h.Write([]byte{0})
				}
			}
			raw = append(raw, discover(chunk)...)
			return nil
		}, func(i int) {
			st.cache.stage(i, append([]seed.Candidate(nil), raw[shardStart:]...), marshalHash(h))
			shardStart = len(raw)
		})
		if err != nil {
			return err
		}
		docs += n
		if docs == 0 {
			return ErrNoDocuments
		}
		st.ident.stamp.Documents = docs
		if h != nil {
			st.ident.stamp.SHA256 = hex.EncodeToString(h.Sum(nil))
		}
		rec.Set("corpus.documents", float64(docs))
		if len(raw) == 0 {
			if st.wk == workload.Title {
				return fmt.Errorf("%w: no lexicon value occurs in any title", ErrNoSeed)
			}
			return fmt.Errorf("%w: no dictionary tables found", ErrNoSeed)
		}
		rec.Add("seed.raw_candidates", int64(len(raw)))
		rec.Add("seed.tables_hit", int64(docsWithTables(raw)))
		agg, rep := seed.AggregateAttributes(raw, scfg)
		clean := seed.CleanValues(agg, st.in.Queries, scfg)
		complete := clean
		if !cfg.DisableDiversification {
			complete = seed.Diversify(clean, agg, scfg)
			rec.Add("seed.diversification_adds", int64(len(complete)-len(clean)))
		}
		if len(cfg.AttrFilter) > 0 {
			keep := make(map[string]bool, len(cfg.AttrFilter))
			for _, a := range cfg.AttrFilter {
				keep[a] = true
			}
			complete = filterCandidates(complete, keep)
			clean = filterCandidates(clean, keep)
		}
		if len(complete) == 0 {
			return fmt.Errorf("%w: seed empty after cleaning/filtering", ErrNoSeed)
		}
		st.complete = complete
		res.RawCandidates = raw
		res.AttrRep = rep
		res.SeedPairs = seed.Pairs(complete)
		res.Attributes = attributeNames(complete)
		for _, cand := range clean {
			if cand.DocID != "" {
				res.SeedTriples = append(res.SeedTriples, triples.Triple{
					ProductID: cand.DocID, Attribute: cand.Attr, Value: cand.Value,
				})
			}
		}
		res.SeedTriples = triples.Dedup(res.SeedTriples)
		if !cfg.DisableSyntacticCleaning {
			// The per-triple veto rules also screen the seed: a markup
			// fragment or symbol that many merchants paste into the same
			// table cell is frequent enough to survive value cleaning, and
			// without this check it would be labeled into every training
			// iteration. The popularity rule is skipped — seed entities are
			// already frequency-filtered.
			veto := cfg.Veto
			veto.PopularFraction = 1
			res.SeedTriples, _ = cleaning.ApplyVetoFor(st.wk, res.SeedTriples, veto)
		}
		return nil
	}); err != nil {
		return err
	}
	if st.cache != nil {
		// Only checkpointed content-addressed runs record corpus provenance:
		// it bumps the bundle wire format, and one-shot runs must keep
		// producing byte-identical artifacts.
		res.corpusProv = bundle.CorpusProvenance{
			Generation: st.ident.generation,
			SHA256:     st.ident.stamp.SHA256,
			Documents:  st.ident.stamp.Documents,
			Shards:     len(st.ident.shardSHAs),
		}
		res.ShardsReused = st.cache.prefix
		res.ShardsRecomputed = len(st.ident.shardSHAs) - st.cache.prefix
		rec.Set("corpus.shards_reused", float64(res.ShardsReused))
		rec.Set("corpus.shards_recomputed", float64(res.ShardsRecomputed))
		if res.ShardsReused > 0 {
			rec.Info("shard cache reuse",
				"reused", res.ShardsReused, "recomputed", res.ShardsRecomputed)
		}
	}
	rec.Add("seed.pairs", int64(len(res.SeedPairs)))
	rec.Add("seed.triples", int64(len(res.SeedTriples)))
	rec.Set("attributes.seed", float64(len(res.Attributes)))
	rec.Info("seed complete",
		"pairs", len(res.SeedPairs), "attributes", len(res.Attributes),
		"seed_triples", len(res.SeedTriples))
	return nil
}

// prepStage is corpus preparation, the second pass over the Source: it
// tokenizes and PoS-tags every document exactly once (the result is what
// tagging, relabeling and the per-iteration word2vec retraining stream), then
// labels the seed documents' sentences into the initial training set
// (Figure 1, line 5). Each chunk fans out over the worker pool and merges in
// document order, so the prepared corpus is identical for every Parallelism
// value and every shard geometry. With Config.Spill set, prepared sentences
// spill to bounded shards as they accumulate; only the seed documents'
// sentences (the training set) stay resident.
func (st *runState) prepStage(ctx context.Context) error {
	cfg, scfg, inj := st.cfg, st.cfg.Seed, st.cfg.FaultInjector
	if err := st.stage(st.runSpan, faultinject.StagePrep, func(sp *obs.Span) error {
		sp.SetAttrInt("workers", int64(cfg.Parallelism))
		pw, err := newPrepWriter(cfg.Spill, cfg.SpillSentences, st.rec)
		if err != nil {
			return err
		}
		defer pw.abort() // a no-op once finish hands the spill to st.prep
		seedDocs := make(map[string]bool)
		for _, cand := range st.complete {
			if cand.DocID != "" {
				seedDocs[cand.DocID] = true
			}
		}
		var seedSents []seed.SentenceOf
		add := func(ss []seed.SentenceOf) error {
			for _, s := range ss {
				if seedDocs[s.DocID] {
					seedSents = append(seedSents, s)
				}
			}
			return pw.add(ss)
		}
		if st.cache != nil {
			// The reused prefix replays in identical corpus order, with no
			// tokenization and no shard reads.
			for i := 0; i < st.cache.prefix; i++ {
				e := st.cache.load(i)
				if e == nil {
					return fmt.Errorf("pae: shard cache entry %d became unreadable mid-run", i)
				}
				if err := add(e.Sents); err != nil {
					return err
				}
			}
		}
		// shardSents collects the current shard's sentences for its cache
		// entry, committed once the walk has verified the shard.
		var shardSents []seed.SentenceOf
		perDoc := make([][]seed.SentenceOf, prepChunk)
		if _, err := st.walk(func(chunk []seed.Document) error {
			pd := perDoc[:len(chunk)]
			if err := par.ForEach(ctx, cfg.Parallelism, len(chunk), func(i int) error {
				if err := inj.Fire(faultinject.StagePrepWorker); err != nil {
					return err
				}
				pd[i] = splitDoc(st.wk, chunk[i], scfg)
				return nil
			}); err != nil {
				return err
			}
			for _, ss := range pd {
				if st.cache != nil {
					shardSents = append(shardSents, ss...)
				}
				if err := add(ss); err != nil {
					return err
				}
			}
			return nil
		}, func(i int) {
			st.cache.commit(i, shardSents)
			shardSents = nil
		}); err != nil {
			return err
		}
		pc, err := pw.finish()
		if err != nil {
			return err
		}
		st.prep = pc
		sp.SetAttrInt("sentences", int64(pc.count()))
		st.dataset, err = seed.LabelSentencesCtx(ctx, seedSents, st.complete, nil, scfg, cfg.Parallelism)
		return err
	}); err != nil {
		return err
	}
	st.rec.Set("corpus.sentences", float64(st.prep.count()))
	return nil
}

// loadStage is the checkpoint bookkeeping before the first cycle.
// Everything before it is recomputed deterministically from the corpus, so
// a checkpoint only carries iteration outputs: a resume replays the
// checkpointed iterations and relabels from their last triples, a warm start
// relabels from those triples merged with the new seed. It returns the first
// iteration left to run.
func (st *runState) loadStage(ctx context.Context) (int, error) {
	cfg, res := st.cfg, st.res
	if cfg.Checkpoint == "" || !(cfg.Resume || cfg.Incremental) {
		return 1, nil
	}
	startIter := 1
	err := st.stage(st.runSpan, "checkpoint.load", func(sp *obs.Span) error {
		sp.SetAttr("dir", cfg.Checkpoint)
		iters, grown, err := loadLatestCheckpoint(cfg.Checkpoint, st.fp, st.wk, st.ident, cfg.Incremental, st.rec)
		if err == nil && grown && !cfg.Incremental {
			err = fmt.Errorf("%w: the checkpoint in %s covers a shard-prefix of this %d-shard corpus (generation %d); enable incremental mode to re-bootstrap from it, or point the run at a fresh checkpoint directory",
				ErrCorpusGrown, cfg.Checkpoint, len(st.ident.shardSHAs), st.ident.generation)
		}
		if err != nil || len(iters) == 0 {
			return err
		}
		labels := iters[len(iters)-1].Triples
		if grown {
			// Warm start: the corpus grew by append since the checkpoint.
			// The bootstrap reruns every iteration over the full grown
			// corpus, but its initial training set is relabeled from the
			// checkpointed run's final triples merged with the new seed —
			// the new documents enter iteration 1 already labeled by
			// everything the previous run learned.
			res.WarmStart = true
			labels = triples.Dedup(append(append([]triples.Triple(nil), res.SeedTriples...), labels...))
		} else {
			res.Iterations = iters
			startIter = iters[len(iters)-1].Iteration + 1
		}
		ds, err := relabel(ctx, st.prep, labels, cfg.Seed, cfg.Parallelism)
		if err != nil {
			return err
		}
		st.dataset = ds
		if grown {
			sp.SetAttr("mode", "warm-start")
			sp.SetAttrInt("warm_triples", int64(len(labels)))
			st.rec.Info("incremental warm start from grown-corpus checkpoint",
				"dir", cfg.Checkpoint, "checkpointed_iterations", len(iters),
				"warm_triples", len(labels))
		} else {
			sp.SetAttrInt("resumed_iterations", int64(len(iters)))
			st.rec.Info("resumed from checkpoint",
				"dir", cfg.Checkpoint, "completed_iterations", len(iters))
		}
		return nil
	})
	return startIter, err
}

// iteration executes one Tagger–Cleaner cycle (Figure 1, lines 8–22) under
// its own span. It returns true when the bootstrap must stop; the cause is
// then already recorded in res.StopReason. Each stage runs behind a guard: a
// panic or injected fault becomes a typed error that stops the loop with
// the cause recorded, never crossing pae.Run. Every stage span — and the
// iteration span — is closed on all paths, including contained panics and
// cancellations.
func (st *runState) iteration(ctx context.Context, iter int) bool {
	cfg, res, rec := st.cfg, st.res, st.rec
	st.iter = iter
	if err := ctxErr(ctx); err != nil {
		res.StopReason = StopReason{Stage: "iteration", Iteration: iter, Err: err}
		return true
	}
	if len(st.dataset) == 0 {
		// Formerly a silent break: record why the bootstrap cannot
		// continue so the operator sees it.
		res.StopReason = StopReason{
			Stage:     faultinject.StageTrain,
			Iteration: iter,
			Err:       fmt.Errorf("%w: relabeling produced an empty dataset", ErrDegenerateTraining),
		}
		return true
	}

	isp := st.runSpan.Child("iteration")
	isp.SetAttrInt("iteration", int64(iter))
	var stopErr error
	defer func() { isp.EndStatus(spanStatus(stopErr), stopErr) }()
	// stage runs one of this cycle's stages under the iteration span; a
	// failure also closes the iteration span with its cause.
	stage := func(name string, fn func(sp *obs.Span) error) error {
		err := st.stage(isp, name, fn)
		if err != nil {
			stopErr = err
			rec.Warn("iteration aborted", "iteration", iter, "stage", name, "err", err)
		}
		return err
	}

	var model tagger.Model
	if err := stage(faultinject.StageTrain, func(sp *obs.Span) error {
		sp.SetAttrInt("workers", int64(cfg.Parallelism))
		if cfg.Model == RNN || cfg.Combine != nil {
			batch := cfg.LSTM.Batch
			if batch <= 0 {
				batch = lstm.DefaultBatch
			}
			sp.SetAttrInt("batch", int64(batch))
		}
		m, err := train(ctx, cfg, st.dataset, uint64(iter))
		if err != nil {
			return err
		}
		model = m
		return nil
	}); err != nil {
		return true
	}

	var tagged []triples.Triple
	if err := stage(faultinject.StageTag, func(sp *obs.Span) error {
		sp.SetAttrInt("workers", int64(cfg.Parallelism))
		// The tag stage and the serve-time Extractor share one engine, so
		// training and serving can never disagree about span decoding,
		// confidence filtering, or worker-count determinism. The prepared
		// corpus streams through in bounded batches; tagging is per-sentence
		// with an index-ordered merge, so batch boundaries never change the
		// output.
		eng := extract.Engine{
			Model:         model,
			MinConfidence: cfg.MinConfidence,
			Workers:       cfg.Parallelism,
			Inject:        cfg.FaultInjector,
		}
		if err := st.prep.forEach(func(batch []seed.SentenceOf) error {
			ts, err := eng.TagSentences(ctx, batch)
			if err != nil {
				return err
			}
			tagged = append(tagged, ts...)
			return nil
		}); err != nil {
			return err
		}
		// TagSentences dedups within its call; a corpus-wide pass restores
		// the cross-batch dedup (first occurrence wins, so the result is
		// identical to tagging the whole corpus in one call — batch
		// boundaries, and therefore spill-shard geometry, never show).
		tagged = triples.Dedup(tagged)
		return nil
	}); err != nil {
		return true
	}
	rec.Add("tag.spans", int64(len(tagged)))
	rec.SeriesAdd(obs.SeriesTagged, iter, float64(len(tagged)))
	rec.SeriesAdd(obs.SeriesTrainingSeqs, iter, float64(len(st.dataset)))

	ir := IterationResult{
		Iteration:         iter,
		TaggedCandidates:  len(tagged),
		TrainingSequences: len(st.dataset),
	}
	kept := tagged
	if !cfg.DisableSyntacticCleaning {
		if err := stage(faultinject.StageVeto, func(*obs.Span) error {
			kept, ir.Veto = cleaning.ApplyVetoFor(cfg.Workload, kept, cfg.Veto)
			return nil
		}); err != nil {
			return true
		}
		rec.Add("veto.killed.symbol", int64(ir.Veto.Symbol))
		rec.Add("veto.killed.markup", int64(ir.Veto.Markup))
		rec.Add("veto.killed.unpopular", int64(ir.Veto.Unpopular))
		rec.Add("veto.killed.too_long", int64(ir.Veto.TooLong))
	}
	rec.SeriesAdd(obs.SeriesVetoKilled, iter, float64(ir.Veto.Removed()))
	if !cfg.DisableSemanticCleaning {
		if err := stage(faultinject.StageSemantic, func(*obs.Span) error {
			var err error
			kept, ir.SemanticRemoved, err = cleaning.SemanticCleanStream(kept, corpusTokenStream(st.prep), cfg.Semantic)
			return err
		}); err != nil {
			return true
		}
		rec.Add("semantic.killed", int64(ir.SemanticRemoved))
	}
	rec.SeriesAdd(obs.SeriesSemanticKilled, iter, float64(ir.SemanticRemoved))

	current := triples.Dedup(append(append([]triples.Triple(nil), res.SeedTriples...), kept...))
	if cfg.Oracle != nil {
		before := len(current)
		if err := stage(faultinject.StageOracle, func(*obs.Span) error {
			current = cfg.Oracle(current)
			return nil
		}); err != nil {
			return true
		}
		rec.Add("oracle.removed", int64(before-len(current)))
		rec.SeriesAdd(obs.SeriesOracleRemoved, iter, float64(before-len(current)))
	}
	ir.Triples = current
	res.Iterations = append(res.Iterations, ir)
	res.finalModel = model
	rec.Add("triples.produced", int64(len(kept)))
	rec.SeriesAdd(obs.SeriesTriples, iter, float64(len(current)))
	rec.SeriesAdd(obs.SeriesAttributes, iter, float64(countAttributes(current)))
	rec.Info("iteration complete",
		"iteration", iter, "tagged", len(tagged),
		"veto_killed", ir.Veto.Removed(), "semantic_killed", ir.SemanticRemoved,
		"triples", len(current))

	if cfg.Checkpoint != "" {
		// A checkpoint failure must not kill a healthy run: it is contained
		// (inSpan, not stage), recorded on the iteration, and the run keeps
		// going (resume will fall back to the previous checkpoint).
		var ckptBytes int64
		err := inSpan(isp, cfg.FaultInjector, faultinject.StageCheckpoint, func(sp *obs.Span) error {
			sp.SetAttr("path", checkpointPath(cfg.Checkpoint, iter))
			n, err := saveCheckpoint(cfg.Checkpoint, st.fp, cfg.Workload, st.ident, res.Iterations, model)
			ckptBytes = n
			sp.SetAttrInt("bytes", n)
			return err
		})
		if err != nil {
			last := &res.Iterations[len(res.Iterations)-1]
			last.Errors = append(last.Errors, err.Error())
			rec.Warn("checkpoint write failed; run continues", "iteration", iter, "err", err)
		} else {
			rec.Add("checkpoint.saves", 1)
			rec.Add("checkpoint.bytes", ckptBytes)
		}
	}

	// Rebuild the labeled dataset from the cleaned triples (Figure 1,
	// line 20): every document with kept triples is relabeled with
	// exactly those values. The iteration itself is already complete and
	// checkpointed; a failure here (cancellation, contained panic) stops
	// the loop without invalidating it.
	if err := stage("relabel", func(sp *obs.Span) error {
		sp.SetAttrInt("workers", int64(cfg.Parallelism))
		ds, err := relabel(ctx, st.prep, current, cfg.Seed, cfg.Parallelism)
		if err != nil {
			return err
		}
		st.dataset = ds
		return nil
	}); err != nil {
		return true
	}

	if cfg.OnIteration != nil {
		cfg.OnIteration(res.Iterations[len(res.Iterations)-1])
	}
	return false
}

// train fits the configured model kind on the dataset, threading the run
// context, the fault injector and the telemetry recorder into the model
// trainers. The iteration index perturbs the RNN seed so retrainings across
// cycles are independent, while staying deterministic for the whole run.
func train(ctx context.Context, cfg Config, dataset []tagger.Sequence, iter uint64) (tagger.Model, error) {
	inj := cfg.FaultInjector
	scope := fmt.Sprintf("iter%02d", iter)
	trainRNN := func() (tagger.Model, error) {
		lcfg := cfg.LSTM
		if lcfg.Seed == 0 {
			lcfg.Seed = 1
		}
		lcfg.Seed = lcfg.Seed*2654435761 + iter
		return lstm.Trainer{Config: lcfg, Ctx: ctx, Inject: inj, Obs: cfg.Obs, ObsScope: scope}.Fit(dataset)
	}
	if cfg.Combine != nil {
		c, err := crf.Trainer{Config: cfg.CRF, Ctx: ctx, Inject: inj, Obs: cfg.Obs, ObsScope: scope}.Fit(dataset)
		if err != nil {
			return nil, err
		}
		r, err := trainRNN()
		if err != nil {
			return nil, err
		}
		return &tagger.Ensemble{Members: []tagger.Model{c, r}, Mode: *cfg.Combine}, nil
	}
	switch cfg.Model {
	case RNN:
		return trainRNN()
	default:
		return crf.Trainer{Config: cfg.CRF, Ctx: ctx, Inject: inj, Obs: cfg.Obs, ObsScope: scope}.Fit(dataset)
	}
}

// corpusTokenStream adapts the prepared corpus to the replayable sentence
// stream the semantic filter retrains its embeddings on. Token texts are
// extracted per batch on every pass, so no corpus-sized token table is ever
// held resident.
func corpusTokenStream(prep prepared) word2vec.SentenceStream {
	return func(yield func([]string) error) error {
		return prep.forEach(func(batch []seed.SentenceOf) error {
			for _, s := range batch {
				if err := yield(text.Texts(s.Tokens)); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// relabel rebuilds the labeled dataset from the current cleaned triples:
// only documents owning at least one triple are included, and each is
// labeled with exactly its own values, fanned out over the worker pool with
// an index-ordered merge. The prepared corpus streams by; only the labeled
// documents' sentences (the training set) are collected.
func relabel(ctx context.Context, prep prepared, current []triples.Triple, scfg seed.Config, workers int) ([]tagger.Sequence, error) {
	allowed := make(map[string]map[string]bool)
	// One candidate per triple (not per distinct pair): the multiplicity is
	// the claim frequency the matcher uses to resolve competing attributes
	// for the same value string.
	pairs := make([]seed.Candidate, 0, len(current))
	for _, t := range current {
		if allowed[t.ProductID] == nil {
			allowed[t.ProductID] = make(map[string]bool)
		}
		allowed[t.ProductID][t.Attribute+"\x00"+seed.Normalize(t.Value)] = true
		pairs = append(pairs, seed.Candidate{Attr: t.Attribute, Value: t.Value})
	}
	var sents []seed.SentenceOf
	if err := prep.forEach(func(batch []seed.SentenceOf) error {
		for _, s := range batch {
			if allowed[s.DocID] != nil {
				sents = append(sents, s)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return seed.LabelSentencesCtx(ctx, sents, pairs, allowed, scfg, workers)
}

// splitDoc prepares one document for the given workload: detail pages are
// HTML-flattened and sentence-split; titles are plain text tokenized as one
// sentence. Every pass that prepares documents — bootstrap prep here, the
// serve-time Extractor in internal/extract — goes through the same per-
// workload split, so training and serving can never disagree about sentence
// boundaries.
func splitDoc(wk workload.Kind, d seed.Document, scfg seed.Config) []seed.SentenceOf {
	if wk.WithDefault() == workload.Title {
		return seed.SplitTitle(d, scfg)
	}
	return seed.SplitDocument(d, scfg)
}

func filterCandidates(cands []seed.Candidate, keep map[string]bool) []seed.Candidate {
	out := cands[:0:0]
	for _, c := range cands {
		if keep[c.Attr] {
			out = append(out, c)
		}
	}
	return out
}

func attributeNames(cands []seed.Candidate) []string {
	seen := make(map[string]bool)
	var out []string
	for _, c := range cands {
		if !seen[c.Attr] {
			seen[c.Attr] = true
			out = append(out, c.Attr)
		}
	}
	sort.Strings(out)
	return out
}

// docsWithTables counts the distinct documents contributing at least one
// dictionary-table candidate — the "tables hit" figure of the seed stage.
func docsWithTables(raw []seed.Candidate) int {
	seen := make(map[string]bool)
	for _, c := range raw {
		if c.DocID != "" {
			seen[c.DocID] = true
		}
	}
	return len(seen)
}

// countAttributes counts the distinct attributes present in a triple set —
// the attribute-inventory growth signal across iterations.
func countAttributes(ts []triples.Triple) int {
	seen := make(map[string]bool)
	for _, t := range ts {
		seen[t.Attribute] = true
	}
	return len(seen)
}

// Describe returns a short human-readable summary of a result, used by the
// CLI tools. A run that stopped early includes its stop reason so a failure
// cause is never silently discarded.
func (r *Result) Describe() string {
	s := fmt.Sprintf("seed pairs=%d attrs=%d seed triples=%d iterations=%d final triples=%d",
		len(r.SeedPairs), len(r.Attributes), len(r.SeedTriples),
		len(r.Iterations), len(r.FinalTriples()))
	if !r.StopReason.Completed() {
		s += " [" + r.StopReason.String() + "]"
	}
	return s
}
