// Package corpus is the streaming corpus layer: the one abstraction through
// which every stage of the pipeline consumes product pages. A corpus.Source
// yields documents one at a time, so corpus size bounds disk, never memory —
// the property a production system ingesting web-scale product data needs
// (the paper runs 200k pages per batch; the north star is far past RAM).
//
// Two implementations ship here:
//
//   - SliceSource wraps an in-memory []seed.Document, keeping the public
//     pae.Run API (and every existing test) unchanged.
//   - Reader opens an on-disk corpus directory in the schema-versioned
//     sharded format this package defines (below) and streams it through
//     DirSource.
//
// # Sharded corpus format
//
// A sharded corpus is a directory:
//
//	corpus.json          manifest: schema version, name/lang, query log,
//	                     alias table, page count, per-shard geometry and
//	                     SHA-256 fingerprints (in the style of the model
//	                     bundle's content addressing)
//	truth.jsonl          optional sidecar: one referee judgment per line,
//	                     kept out of the manifest so manifests stay small
//	                     for large corpora
//	shards/shard-NNNN.jsonl
//	                     page shards: one JSON object {"id","html"} per
//	                     line, at most Manifest.ShardSize pages each
//
// Every component of the format is deterministic: pages are written in
// generation order, JSON object keys are fixed, and the per-shard SHA-256
// doubles as a content address, so the same generator seed always produces
// byte-identical shards regardless of how the writer was parallelised.
//
// Reads are verified: a shard whose bytes do not hash to the manifest's
// fingerprint surfaces ErrFingerprint, a syntactically broken or truncated
// shard surfaces ErrCorrupt, and a manifest from a newer schema surfaces a
// *VersionError — typed errors in the PR-1 taxonomy style, never a panic or
// a silent short read.
package corpus

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/seed"
)

// SchemaVersion identifies the sharded corpus layout. Opening a corpus
// written under any other version fails with a *VersionError, never a
// misread.
const SchemaVersion = 1

// Typed failure sentinels; match with errors.Is.
var (
	// ErrNotCorpus: the directory holds no sharded corpus (no corpus.json
	// manifest).
	ErrNotCorpus = errors.New("corpus: not a corpus directory")
	// ErrSchemaVersion: the manifest's schema version is not the one this
	// binary supports.
	ErrSchemaVersion = errors.New("corpus: unsupported schema version")
	// ErrCorrupt: a shard or manifest is structurally broken — undecodable
	// JSON, a truncated shard, a page count that disagrees with the
	// manifest.
	ErrCorrupt = errors.New("corpus: corrupt corpus")
	// ErrFingerprint: a shard's bytes do not hash to the fingerprint the
	// manifest recorded, i.e. the shard was modified after it was written.
	ErrFingerprint = errors.New("corpus: shard fingerprint mismatch")
)

// VersionError reports a schema-version mismatch with both sides attached.
// It unwraps to ErrSchemaVersion.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("corpus: manifest has schema version %d, this binary supports %d", e.Got, e.Want)
}

// Unwrap makes errors.Is(err, ErrSchemaVersion) true.
func (e *VersionError) Unwrap() error { return ErrSchemaVersion }

// Source is the streaming document iterator every pipeline layer consumes:
// the bootstrap's seed and prep passes, the serve-time batch extractor, and
// the CLI tools. Implementations yield documents in a fixed order; Next
// returns io.EOF after the last document. A Source is single-goroutine;
// callers that fan out do so over the documents they have already pulled.
type Source interface {
	// Next returns the next document, or io.EOF when the corpus is
	// exhausted. Any other error is terminal for the current pass.
	Next() (seed.Document, error)
	// Reset rewinds the source to the first document, so multi-pass
	// consumers (the bootstrap reads the corpus once for seed discovery and
	// once for preparation) can replay the identical stream.
	Reset() error
	// Close releases underlying resources. The source is unusable after.
	Close() error
}

// ContentAddressed is the optional interface of sources whose pages live in
// immutable content-addressed shards (DirSource over a sharded corpus). The
// bootstrap uses it four ways: the shard count guards resumes against a
// different corpus geometry, the per-shard SHA-256s key the reusable
// prep/seed cache and are stamped into checkpoints, Generation names the
// corpus state in checkpoints and bundles, and SeekShard skips the shard
// prefix whose work was reused.
type ContentAddressed interface {
	ShardInfos() []ShardInfo
	Generation() int
	SeekShard(i int) error
}

// Instrumented is the optional telemetry hook a Source may implement;
// callers that hold an obs recorder hand it (plus a parent span) to the
// source so shard reads show up as counters (corpus.shards,
// corpus.bytes_read) and shard-granular spans under the calling stage.
type Instrumented interface {
	Instrument(rec *obs.Recorder, parent *obs.Span)
}

// SliceSource adapts an in-memory document slice to the Source interface —
// the trivial implementation behind the unchanged pae.Run API, and the
// reference behavior every on-disk source must reproduce byte for byte.
type SliceSource struct {
	docs []seed.Document
	i    int
}

// NewSliceSource returns a Source over docs. The slice is not copied.
func NewSliceSource(docs []seed.Document) *SliceSource {
	return &SliceSource{docs: docs}
}

// Next returns the next document or io.EOF.
func (s *SliceSource) Next() (seed.Document, error) {
	if s.i >= len(s.docs) {
		return seed.Document{}, io.EOF
	}
	d := s.docs[s.i]
	s.i++
	return d, nil
}

// Reset rewinds to the first document.
func (s *SliceSource) Reset() error { s.i = 0; return nil }

// Close is a no-op.
func (s *SliceSource) Close() error { return nil }

// Len returns the number of documents in the slice.
func (s *SliceSource) Len() int { return len(s.docs) }

// ForEachChunk streams src in document order as bounded chunks of at most
// chunkSize documents, calling fn with each chunk and the index of its first
// document. The chunk slice is reused between calls; fn must not retain it.
// It returns the total number of documents read. Chunk boundaries depend
// only on chunkSize — never on how the source is sharded on disk — so every
// consumer's fan-out pattern is invariant of the corpus layout.
func ForEachChunk(src Source, chunkSize int, fn func(docs []seed.Document, base int) error) (int, error) {
	if chunkSize <= 0 {
		chunkSize = 64
	}
	chunk := make([]seed.Document, 0, chunkSize)
	base, total := 0, 0
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := fn(chunk, base); err != nil {
			return err
		}
		base += len(chunk)
		chunk = chunk[:0]
		return nil
	}
	for {
		d, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, err
		}
		total++
		chunk = append(chunk, d)
		if len(chunk) == chunkSize {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	return total, flush()
}
