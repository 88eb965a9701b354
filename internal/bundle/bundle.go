// Package bundle defines the frozen artifact shared between train time and
// serve time: one immutable, schema-versioned, fingerprinted file holding
// everything inference needs — the trained model (CRF, BiLSTM, or an
// ensemble of both), the confidence threshold, the cleaning configuration,
// the attribute schema discovered during bootstrapping, the language
// settings that select the tokenizer and PoS tagger, and provenance linking
// the artifact back to the exact training configuration that produced it.
//
// The bootstrap (internal/core) *produces* a bundle; the extraction engine
// (internal/extract) and the serving layer (cmd/paeserve) *consume* one.
// Nothing at serve time reaches back into training state: if a datum is not
// in the bundle, inference cannot depend on it. That hard boundary is what
// lets a model trained once be shipped to any number of serving replicas.
//
// File format (".paeb"), all sections length-prefixed so the manifest is
// readable without decoding megabytes of model weights:
//
//	magic "PAEB"                        4 bytes
//	schema version                      uint32 big-endian
//	manifest section                    uint32 length + gob(manifestWire)
//	model section                       uint32 length + model codec (codec.go)
//	fingerprint trailer                 32 bytes: SHA-256 of everything above
//
// Every component of the encoding is deterministic — the manifest wire form
// contains no Go maps (gob randomises map order), and the model codecs write
// their alphabets in id order — so save → load → save produces identical
// bytes and the fingerprint doubles as a content address.
package bundle

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicfile"
	"repro/internal/cleaning"
	"repro/internal/tagger"
	"repro/internal/workload"
)

// SchemaVersion is the newest bundle file layout this binary writes and
// reads. Version 2 added the Workload manifest field; version 3 added the
// Corpus provenance block. Readers accept every version back to schemaV1;
// loading a file written under a newer (unknown) version fails with a
// *VersionError (wrapping ErrSchemaVersion), never a panic or a silent
// misread.
//
// Writers are deliberately conservative: a detail-page bundle still encodes
// as version 1, byte for byte the pre-Workload format, because gob's type
// descriptor covers every exported field of the wire struct — adding a field
// changes the encoded bytes (and so the content fingerprint) even when its
// value is zero. Each bundle is written in the lowest version that can carry
// its content — version 2 only when the workload is not detail-page, version
// 3 only when corpus provenance is present — so every existing artifact,
// stored fingerprint, and pre-refactor binary stays valid.
const SchemaVersion = 3

// schemaV1 is the pre-Workload layout; detail-page bundles without corpus
// provenance are still written in it (see SchemaVersion).
const schemaV1 = 1

// schemaV2 is the layout that added the Workload field; still written for
// non-detail-page bundles without corpus provenance.
const schemaV2 = 2

var magic = [4]byte{'P', 'A', 'E', 'B'}

// Typed failure sentinels; match with errors.Is.
var (
	// ErrSchemaVersion: the file's schema version is not the one this
	// binary supports.
	ErrSchemaVersion = errors.New("bundle: unsupported schema version")
	// ErrCorrupt: the file is structurally broken — bad magic, truncated
	// section, undecodable payload.
	ErrCorrupt = errors.New("bundle: corrupt file")
	// ErrFingerprint: the content hash in the trailer does not match the
	// bytes read, i.e. the file was modified after it was written.
	ErrFingerprint = errors.New("bundle: fingerprint mismatch")
	// ErrUnknownModel: the model kind cannot be (de)serialised by the
	// codec — a test double or a future backend without wire support.
	ErrUnknownModel = errors.New("bundle: unknown model kind")
)

// VersionError reports a schema-version mismatch with both sides attached.
// It unwraps to ErrSchemaVersion.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("bundle: file has schema version %d, this binary supports %d", e.Got, e.Want)
}

// Unwrap makes errors.Is(err, ErrSchemaVersion) true.
func (e *VersionError) Unwrap() error { return ErrSchemaVersion }

// AttrMapping is one surface attribute name → representative entry of the
// aggregation the pre-processor discovered. The slice form (sorted by
// Surface) replaces the map the pipeline uses internally, because gob
// serialises maps in random order and the bundle must be byte-stable.
type AttrMapping struct {
	Surface        string
	Representative string
}

// SemanticSettings is the comparable subset of the semantic-drift cleaning
// configuration — the function-valued fields (tokenizer hook, telemetry
// recorder) stay behind at train time and are reconstructed by the consumer.
type SemanticSettings struct {
	CoreSize      int
	MinSimilarity float64
}

// SeedSettings is the comparable subset of the pre-processor configuration.
// The tokenizer and PoS tagger are reconstructed from Manifest.Lang.
type SeedSettings struct {
	AggThreshold   float64
	MinValueFreq   int
	TopShapes      int
	ValuesPerShape int
}

// CorpusProvenance names the exact corpus state a training run saw, for
// bundles built from a content-addressed (sharded, appendable) corpus under a
// checkpoint. The zero value means "not recorded" — in-memory corpora and
// non-checkpointed runs — and keeps the bundle in its pre-v3 wire form.
//
// It lives beside Provenance rather than inside it: Provenance is embedded in
// the version-1 wire struct, so growing it would silently change the bytes
// (and fingerprint) of every detail-page bundle.
type CorpusProvenance struct {
	// Generation is the corpus manifest's append counter at train time: 0
	// for a corpus written in one shot, incremented by each delta append.
	Generation int
	// SHA256 is the corpus content stamp: the rolling hash over every
	// document id and body in corpus order.
	SHA256 string
	// Documents and Shards are the corpus geometry at train time.
	Documents int
	Shards    int
}

// IsZero reports whether no corpus provenance was recorded.
func (c CorpusProvenance) IsZero() bool { return c == CorpusProvenance{} }

// Provenance records where the bundle came from: the training configuration
// fingerprint (the same string checkpoints embed, so an artifact can be
// matched to its run), and summary statistics of the bootstrap that built it.
type Provenance struct {
	// ConfigFingerprint is core.Config.Fingerprint() of the training run.
	ConfigFingerprint string
	// Iterations completed by the bootstrap.
	Iterations int
	// TrainingSequences the final model was fitted on.
	TrainingSequences int
	// Triples in the final cleaned set.
	Triples int
	// SeedPairs in the "complete_cc" seed.
	SeedPairs int
}

// Manifest is everything in a bundle except the model weights. It is cheap
// to read (Stat) without touching the model section.
type Manifest struct {
	// SchemaVersion of the file this manifest was read from (or, for a
	// manifest about to be saved, the version Save will write — schemaV1
	// for detail-page bundles, bundle.SchemaVersion otherwise).
	SchemaVersion int
	// Workload names the page shape the model was trained on and therefore
	// the request shape the extractor accepts. Version-1 files predate the
	// field and always load as workload.DetailPage.
	Workload workload.Kind
	// Lang selects the tokenizer and PoS tagger ("ja" or "de").
	Lang string
	// ModelKind names the trained model: "CRF", "RNN", or
	// "ensemble(<mode>)" for a combined model.
	ModelKind string
	// MinConfidence is the span-confidence floor applied at extraction
	// time (0 disables; always inert for ensembles, which report no
	// confidences).
	MinConfidence float64
	// Veto is the syntactic-cleaning configuration. The popularity rule is
	// corpus-relative; per-page extraction disables it (see
	// internal/extract).
	Veto cleaning.VetoConfig
	// Semantic is the comparable part of the drift-cleaning configuration,
	// carried for provenance and for batch consumers that re-run the
	// filter over a large extraction corpus.
	Semantic SemanticSettings
	// Seed is the comparable part of the pre-processor configuration the
	// extractor reuses for sentence splitting.
	Seed SeedSettings
	// Attributes lists the representative attribute names the model tags,
	// sorted.
	Attributes []string
	// AttrRep maps surface attribute names to representatives, sorted by
	// surface form.
	AttrRep []AttrMapping
	// Provenance ties the artifact to its training run.
	Provenance Provenance
	// Corpus names the corpus state the run trained on (zero when the
	// source was not content-addressed or the run was not checkpointed).
	// A nonzero value bumps the file to schema version 3.
	Corpus CorpusProvenance
}

// Bundle is a loaded (or about-to-be-saved) model bundle.
type Bundle struct {
	Manifest Manifest
	Model    tagger.Model

	// fingerprint is the hex SHA-256 of the canonical encoding, set by
	// Save and Load and computed on demand by Fingerprint.
	fingerprint string
}

// Fingerprint returns the hex SHA-256 content address of the bundle's
// canonical encoding. After Save or Load it is the stored value; on a
// freshly built bundle it is computed by encoding into the hash.
func (b *Bundle) Fingerprint() string {
	if b.fingerprint != "" {
		return b.fingerprint
	}
	h := sha256.New()
	if err := b.encode(h); err != nil {
		return ""
	}
	b.fingerprint = hex.EncodeToString(h.Sum(nil))
	return b.fingerprint
}

// manifestWire is the version-1 gob form of Manifest — the pre-Workload
// layout, still written for detail-page bundles. It must never gain a field:
// gob's type descriptor covers all exported fields, so any addition changes
// the bytes of every bundle encoded with it. New fields go in the next
// versioned wire struct with a schema bump, not a silent re-gob.
type manifestWire struct {
	Lang          string
	ModelKind     string
	MinConfidence float64
	Veto          cleaning.VetoConfig
	Semantic      SemanticSettings
	Seed          SeedSettings
	Attributes    []string
	AttrRep       []AttrMapping
	Provenance    Provenance
}

// manifestWireV2 is the version-2 gob form: v1 plus the Workload kind
// (stored as its stable string). Written only when the workload is not
// detail-page.
type manifestWireV2 struct {
	Workload      string
	Lang          string
	ModelKind     string
	MinConfidence float64
	Veto          cleaning.VetoConfig
	Semantic      SemanticSettings
	Seed          SeedSettings
	Attributes    []string
	AttrRep       []AttrMapping
	Provenance    Provenance
}

// manifestWireV3 is the version-3 gob form: v2 plus the corpus provenance
// block. Written only when corpus provenance was recorded.
type manifestWireV3 struct {
	Workload      string
	Lang          string
	ModelKind     string
	MinConfidence float64
	Veto          cleaning.VetoConfig
	Semantic      SemanticSettings
	Seed          SeedSettings
	Attributes    []string
	AttrRep       []AttrMapping
	Provenance    Provenance
	Corpus        CorpusProvenance
}

// gob allocates wire type ids from a process-global counter in first-use
// order, and those ids appear in the encoded stream. Encoding a zero value
// here pins manifestWire's ids (and those of every type it reaches) at
// package init, so bundle bytes — and therefore the bundle fingerprint —
// are a pure function of bundle content, never of which other code used gob
// first in the process (checkpoint state, prepared-corpus shard entries).
// The crf and lstm packages pin their own wire types the same way; package
// initialisation order is deterministic, so every binary assigns the same
// ids.
func init() {
	// Pin order matters: manifestWire first, exactly as before the V2 type
	// existed, so the wire-type ids inside version-1 files are unchanged;
	// each later wire struct pins after every earlier one for the same
	// reason.
	_ = gob.NewEncoder(io.Discard).Encode(manifestWire{})
	_ = gob.NewEncoder(io.Discard).Encode(manifestWireV2{})
	_ = gob.NewEncoder(io.Discard).Encode(manifestWireV3{})
}

// wireVersion returns the schema version Save will write for this manifest:
// the lowest version that can carry its content. Detail-page bundles without
// corpus provenance keep the pre-Workload version 1 (bytes and fingerprints
// identical to pre-refactor output), other provenance-free bundles version 2,
// and only a recorded corpus state pays the version-3 bump.
func (m *Manifest) wireVersion() int {
	if !m.Corpus.IsZero() {
		return SchemaVersion
	}
	if m.Workload.WithDefault() == workload.DetailPage {
		return schemaV1
	}
	return schemaV2
}

// encode writes the bundle body (everything before the fingerprint trailer).
func (b *Bundle) encode(w io.Writer) error {
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	version := b.Manifest.wireVersion()
	var ver [4]byte
	binary.BigEndian.PutUint32(ver[:], uint32(version))
	if _, err := w.Write(ver[:]); err != nil {
		return err
	}
	var mbuf bytes.Buffer
	var werr error
	if version == schemaV1 {
		werr = gob.NewEncoder(&mbuf).Encode(manifestWire{
			Lang:          b.Manifest.Lang,
			ModelKind:     b.Manifest.ModelKind,
			MinConfidence: b.Manifest.MinConfidence,
			Veto:          b.Manifest.Veto,
			Semantic:      b.Manifest.Semantic,
			Seed:          b.Manifest.Seed,
			Attributes:    b.Manifest.Attributes,
			AttrRep:       b.Manifest.AttrRep,
			Provenance:    b.Manifest.Provenance,
		})
	} else if version == schemaV2 {
		werr = gob.NewEncoder(&mbuf).Encode(manifestWireV2{
			Workload:      b.Manifest.Workload.String(),
			Lang:          b.Manifest.Lang,
			ModelKind:     b.Manifest.ModelKind,
			MinConfidence: b.Manifest.MinConfidence,
			Veto:          b.Manifest.Veto,
			Semantic:      b.Manifest.Semantic,
			Seed:          b.Manifest.Seed,
			Attributes:    b.Manifest.Attributes,
			AttrRep:       b.Manifest.AttrRep,
			Provenance:    b.Manifest.Provenance,
		})
	} else {
		werr = gob.NewEncoder(&mbuf).Encode(manifestWireV3{
			Workload:      b.Manifest.Workload.String(),
			Lang:          b.Manifest.Lang,
			ModelKind:     b.Manifest.ModelKind,
			MinConfidence: b.Manifest.MinConfidence,
			Veto:          b.Manifest.Veto,
			Semantic:      b.Manifest.Semantic,
			Seed:          b.Manifest.Seed,
			Attributes:    b.Manifest.Attributes,
			AttrRep:       b.Manifest.AttrRep,
			Provenance:    b.Manifest.Provenance,
			Corpus:        b.Manifest.Corpus,
		})
	}
	if werr != nil {
		return fmt.Errorf("bundle: encode manifest: %w", werr)
	}
	if err := writeSection(w, mbuf.Bytes()); err != nil {
		return err
	}
	var modelBuf bytes.Buffer
	if err := EncodeModel(&modelBuf, b.Model); err != nil {
		return err
	}
	return writeSection(w, modelBuf.Bytes())
}

// Save writes the bundle to w: body plus the SHA-256 trailer. It also sets
// the bundle's fingerprint to the written content address.
func (b *Bundle) Save(w io.Writer) error {
	h := sha256.New()
	bw := bufio.NewWriter(w)
	// Encode through a tee so the hash covers exactly the bytes written.
	if err := b.encode(io.MultiWriter(bw, h)); err != nil {
		return err
	}
	sum := h.Sum(nil)
	if _, err := bw.Write(sum); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	b.fingerprint = hex.EncodeToString(sum)
	return nil
}

// SaveFile commits the bundle to path through atomicfile, so a crash
// mid-write never leaves a truncated artifact at the target name.
func (b *Bundle) SaveFile(path string) error {
	_, err := atomicfile.Write(path, b.Save)
	return err
}

// Load reads a bundle previously written by Save, verifying the schema
// version and the content fingerprint.
func Load(r io.Reader) (*Bundle, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("bundle: read: %w", err)
	}
	return decode(raw)
}

// LoadFile reads a bundle from path.
func LoadFile(path string) (*Bundle, error) {
	b, _, err := LoadFileInfo(path)
	return b, err
}

// LoadFileInfo reads a bundle from path together with the FileInfo Stat
// would report for it, from one read and one hash of the file — what a
// server needs to serve a bundle and describe it.
func LoadFileInfo(path string) (*Bundle, *FileInfo, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := parse(raw)
	if err == nil {
		var b *Bundle
		if b, err = f.bundle(); err == nil {
			return b, f.info, nil
		}
	}
	return nil, nil, fmt.Errorf("%s: %w", path, err)
}

func decode(raw []byte) (*Bundle, error) {
	f, err := parse(raw)
	if err != nil {
		return nil, err
	}
	return f.bundle()
}

// file is a bundle file whose layout and fingerprint trailer are verified
// and whose manifest is decoded; the model section is sliced, not decoded.
// info is a separate allocation so a caller keeping it does not keep the
// file's bytes alive through model.
type file struct {
	info  *FileInfo
	model []byte
}

// parse validates magic and version, slices out the two sections, checks
// the fingerprint trailer, and decodes the manifest — the shared front half
// of Load and Stat.
func parse(raw []byte) (*file, error) {
	if len(raw) < len(magic)+4+sha256.Size {
		return nil, fmt.Errorf("%w: file too short (%d bytes)", ErrCorrupt, len(raw))
	}
	if !bytes.Equal(raw[:4], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, raw[:4])
	}
	version := int(binary.BigEndian.Uint32(raw[4:8]))
	if version < schemaV1 || version > SchemaVersion {
		return nil, &VersionError{Got: version, Want: SchemaVersion}
	}
	body := raw[:len(raw)-sha256.Size]
	manifest, rest, err := readSection(body[8:])
	if err != nil {
		return nil, fmt.Errorf("manifest %w", err)
	}
	model, rest, err := readSection(rest)
	if err != nil {
		return nil, fmt.Errorf("model %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after model section", ErrCorrupt, len(rest))
	}
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], raw[len(body):]) {
		return nil, fmt.Errorf("%w: content hash does not match trailer", ErrFingerprint)
	}
	m, err := decodeManifest(manifest, version)
	if err != nil {
		return nil, err
	}
	return &file{model: model, info: &FileInfo{
		Manifest:      *m,
		Fingerprint:   hex.EncodeToString(sum[:]),
		ManifestBytes: int64(len(manifest)),
		ModelBytes:    int64(len(model)),
		TotalBytes:    int64(len(raw)),
	}}, nil
}

// bundle decodes the model section and checks that the file is the
// canonical encoding of what it decoded to: re-encoding must reproduce the
// fingerprint, so one content has exactly one content address. Gob accepts
// encodings Save never writes (a padded integer, a field the wire struct
// lacks, a detail-page manifest under schema 2); such a file would carry a
// second fingerprint for the same model and defeat fingerprint pinning.
func (f *file) bundle() (*Bundle, error) {
	model, err := DecodeModel(bytes.NewReader(f.model))
	if err != nil {
		return nil, err
	}
	b := &Bundle{Manifest: f.info.Manifest, Model: model}
	if b.Fingerprint() != f.info.Fingerprint {
		return nil, fmt.Errorf("%w: not the canonical encoding of its content", ErrCorrupt)
	}
	return b, nil
}

// decodeManifest decodes every schema version through the newest wire
// struct: gob matches fields by name, so an older stream simply leaves the
// fields it predates at zero.
func decodeManifest(raw []byte, version int) (*Manifest, error) {
	var w manifestWireV3
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&w); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	// Version 1 predates the Workload field; every v1 bundle is a
	// detail-page model by construction.
	wk := workload.DetailPage
	if version != schemaV1 {
		var err error
		if wk, err = workload.Parse(w.Workload); err != nil {
			return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
		}
	}
	return &Manifest{
		SchemaVersion: version,
		Workload:      wk,
		Lang:          w.Lang,
		ModelKind:     w.ModelKind,
		MinConfidence: w.MinConfidence,
		Veto:          w.Veto,
		Semantic:      w.Semantic,
		Seed:          w.Seed,
		Attributes:    w.Attributes,
		AttrRep:       w.AttrRep,
		Provenance:    w.Provenance,
		Corpus:        w.Corpus,
	}, nil
}

func writeSection(w io.Writer, payload []byte) error {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(payload)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readSection(raw []byte) (payload, rest []byte, err error) {
	if len(raw) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated section length", ErrCorrupt)
	}
	n := binary.BigEndian.Uint32(raw[:4])
	if uint64(n) > uint64(len(raw)-4) {
		return nil, nil, fmt.Errorf("%w: section claims %d bytes, %d available", ErrCorrupt, n, len(raw)-4)
	}
	return raw[4 : 4+n], raw[4+n:], nil
}

// FileInfo is what Stat reads from a bundle file without decoding the model
// weights: the manifest plus section sizes, for inspection tooling and the
// serving layer's /bundle endpoint.
type FileInfo struct {
	Manifest      Manifest
	Fingerprint   string // hex SHA-256 content address (the trailer)
	ManifestBytes int64
	ModelBytes    int64
	TotalBytes    int64
}

// Stat reads the manifest and section sizes of a bundle file. The model
// section is sliced but not decoded, so Stat on a multi-megabyte bundle
// costs one file read and one small gob decode. The fingerprint trailer is
// verified like Load does.
func Stat(path string) (*FileInfo, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.info, nil
}
