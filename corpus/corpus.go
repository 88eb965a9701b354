// Package corpus is the public face of the streaming corpus layer. It
// re-exports internal/corpus so library users can feed pae.RunSource from
// an on-disk corpus or an in-memory document slice — the same machinery
// cmd/paerun wires up behind -corpus and cmd/paegen writes behind
// -shard-size.
//
//	r, err := corpus.Open("./corpus")   // a sharded corpus directory
//	src := r.Source()
//	defer src.Close()
//	result, err := pae.RunSource(ctx,
//	    pae.Input{Source: src, Queries: r.Manifest.Queries, Lang: r.Manifest.Lang},
//	    pae.Config{})
//
// Reads verify the manifest's per-shard SHA-256 fingerprints as they
// stream; damage surfaces as a typed error (ErrFingerprint, ErrCorrupt,
// ErrSchemaVersion, ErrNotCorpus), never a panic or a silent short read.
package corpus

import (
	"repro/internal/corpus"
	"repro/internal/seed"
)

// Document is one product page; identical to pae.Document.
type Document = seed.Document

// SchemaVersion identifies the sharded corpus layout.
const SchemaVersion = corpus.SchemaVersion

// DefaultShardSize is the writer's pages-per-shard when WriterOptions
// leaves ShardSize zero.
const DefaultShardSize = corpus.DefaultShardSize

// Typed failure sentinels; match with errors.Is.
var (
	// ErrNotCorpus: the directory holds no sharded corpus (no corpus.json).
	ErrNotCorpus = corpus.ErrNotCorpus
	// ErrSchemaVersion: the corpus was written under a different schema
	// version (the error is a *VersionError carrying both versions).
	ErrSchemaVersion = corpus.ErrSchemaVersion
	// ErrCorrupt: a shard or manifest is truncated or undecodable.
	ErrCorrupt = corpus.ErrCorrupt
	// ErrFingerprint: a shard's bytes do not hash to the manifest's SHA-256.
	ErrFingerprint = corpus.ErrFingerprint
)

// VersionError reports a schema-version mismatch; errors.Is it against
// ErrSchemaVersion.
type VersionError = corpus.VersionError

// Source is the streaming document iterator every pipeline stage consumes;
// pae.Source is the same type.
type Source = corpus.Source

// SliceSource adapts an in-memory document slice to a Source.
type SliceSource = corpus.SliceSource

// Reader opens an on-disk sharded corpus directory.
type Reader = corpus.Reader

// Manifest describes a sharded corpus: schema version, name/lang, query
// log, alias table, page count, and per-shard geometry + fingerprints.
type Manifest = corpus.Manifest

// ShardInfo is one shard's entry in the manifest.
type ShardInfo = corpus.ShardInfo

// Writer streams pages into a new sharded corpus directory; Close writes
// the manifest (the commit point).
type Writer = corpus.Writer

// WriterOptions configures a Writer.
type WriterOptions = corpus.WriterOptions

// NewSliceSource wraps an in-memory document slice in a Source.
func NewSliceSource(docs []Document) *SliceSource { return corpus.NewSliceSource(docs) }

// Open opens a sharded corpus directory.
func Open(dir string) (*Reader, error) { return corpus.Open(dir) }

// ReadManifest reads only the manifest of a sharded corpus — cheap
// inspection without touching page bodies.
func ReadManifest(dir string) (*Manifest, error) { return corpus.ReadManifest(dir) }

// IsDir reports whether dir looks like a sharded corpus directory.
func IsDir(dir string) bool { return corpus.IsDir(dir) }

// NewWriter creates a sharded corpus writer rooted at dir.
func NewWriter(dir string, opt WriterOptions) (*Writer, error) { return corpus.NewWriter(dir, opt) }
