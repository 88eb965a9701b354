// Package pae is the public API of this repository: a from-scratch Go
// reproduction of "Accurate Product Attribute Extraction on the Field"
// (Alonso Alemany, Nio, Rezk, Zhang — ICDE 2019), Rakuten's bootstrapping
// system for extracting <product, attribute, value> triples from product
// pages with minimal human supervision.
//
// The pipeline mirrors the paper's Figure 1:
//
//  1. A seed of <attribute, value> pairs is harvested from HTML dictionary
//     tables, redundant attribute names are aggregated, values are cleaned
//     against the query log, and the seed is diversified by PoS shape.
//  2. A sequence tagger (CRF or BiLSTM) trained on the labeled data proposes
//     new triples from free-form text.
//  3. Syntactic veto rules and a word-embedding semantic-drift filter remove
//     unreliable triples; survivors become the next iteration's training
//     data. The cycle repeats for a fixed number of iterations.
//
// Quick start:
//
//	corpus := pae.Corpus{Documents: docs, Queries: queries, Lang: "ja"}
//	result, err := pae.Run(corpus, pae.Config{})
//	if err != nil { ... }
//	for _, t := range result.FinalTriples() {
//	    fmt.Println(t.ProductID, t.Attribute, t.Value)
//	}
//
// The zero Config is the paper's full system: CRF tagger, five bootstrap
// iterations, value diversification, and both cleaning modules enabled. See
// Config for the ablation toggles the paper evaluates, and the examples/
// directory for runnable end-to-end programs including the synthetic corpus
// generator that stands in for the paper's proprietary datasets.
package pae

import (
	"context"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/seed"
	"repro/internal/tagger"
	"repro/internal/triples"
)

// Document is one product page: an opaque ID and raw HTML.
type Document = seed.Document

// Corpus is the in-memory pipeline input: pages, the user query log, and the
// language ("ja" or "de") selecting the tokenizer.
type Corpus = core.Corpus

// Input is the streaming pipeline input: documents arrive through a
// corpus.Source iterator (for example corpus.Open(dir).Source() over a
// sharded on-disk corpus), so the bootstrap never needs the page set in
// memory. See RunSource.
type Input = core.Input

// Source is the streaming document iterator; see the corpus package for the
// on-disk sharded format and its readers.
type Source = corpus.Source

// Config holds every knob of the system; its zero value is the paper's full
// configuration.
type Config = core.Config

// Triple is one extracted <product, attribute, value> statement.
type Triple = triples.Triple

// Result is the pipeline output: the seed, the attribute inventory, and the
// triples after every bootstrap iteration.
type Result = core.Result

// IterationResult describes one Tagger–Cleaner cycle.
type IterationResult = core.IterationResult

// ModelKind selects the sequence tagger.
type ModelKind = core.ModelKind

// The two tagging models the paper evaluates.
const (
	CRF = core.CRF
	RNN = core.RNN
)

// EnsembleMode selects how Config.Combine merges CRF and RNN predictions —
// the model-combination extension of the paper's conclusion.
type EnsembleMode = tagger.EnsembleMode

// Ensemble combination modes.
const (
	Intersection = tagger.Intersection
	Union        = tagger.Union
	Majority     = tagger.Majority
)

// StopReason records where and why a run ended before completing every
// configured iteration; see Result.StopReason.
type StopReason = core.StopReason

// PanicError is the typed form of a pipeline-stage panic contained by the
// fault-isolation boundaries; it unwraps to ErrStagePanic.
type PanicError = core.PanicError

// The error taxonomy of the fault-tolerant bootstrap. Match with errors.Is
// against the error returned by Run/RunContext or recorded in
// Result.StopReason.
var (
	ErrNoDocuments        = core.ErrNoDocuments
	ErrNoSeed             = core.ErrNoSeed
	ErrDegenerateTraining = core.ErrDegenerateTraining
	ErrModelDiverged      = core.ErrModelDiverged
	ErrCanceled           = core.ErrCanceled
	ErrStagePanic         = core.ErrStagePanic
	ErrCheckpointMismatch = core.ErrCheckpointMismatch
)

// Run executes the full bootstrapping pipeline on the corpus.
func Run(c Corpus, cfg Config) (*Result, error) {
	return core.New(cfg).Run(c)
}

// RunContext executes the full bootstrapping pipeline on the corpus under
// ctx, making long runs cancellable and time-boxable.
//
// Pre-bootstrap failures (empty corpus, no usable seed) return a typed
// error. Once the Tagger–Cleaner cycle has started, failures — a degenerate
// training set, a NaN/Inf model divergence, a contained stage panic, a
// cancellation — end the run gracefully instead: the returned error is nil,
// the completed iterations remain in the Result, and the typed cause is in
// Result.StopReason. With Config.Checkpoint set, each completed iteration is
// checkpointed and an interrupted run can be resumed with Config.Resume.
func RunContext(ctx context.Context, c Corpus, cfg Config) (*Result, error) {
	return core.New(cfg).RunContext(ctx, c)
}

// RunSource executes the full bootstrapping pipeline over a streaming corpus
// under ctx. The corpus is read in two passes through the Source iterator
// and never materialised in memory; combined with Config.Spill, which spills
// the prepared corpus as one entry per corpus shard, the run's resident
// memory is bounded by its working set — one shard's prepared sentences, so
// `paegen -shard-size` sets the bound — not by corpus size. Output
// is byte-identical to RunContext over the same document sequence, for every
// on-disk shard geometry and every Parallelism value. The caller retains
// ownership of the Source and closes it after the run.
func RunSource(ctx context.Context, in Input, cfg Config) (*Result, error) {
	return core.New(cfg).RunSource(ctx, in)
}
