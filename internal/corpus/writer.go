package corpus

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"

	"repro/internal/gen"
	"repro/internal/seed"
	"repro/internal/workload"
)

// On-disk names of the sharded layout.
const (
	manifestFile = "corpus.json"
	truthFile    = "truth.jsonl"
	shardDir     = "shards"
)

// DefaultShardSize is the page count per shard when the writer is not told
// otherwise: large enough that shard-open overhead vanishes, small enough
// that one shard is a trivial fraction of RAM even with verbose pages.
const DefaultShardSize = 512

// ShardInfo is the manifest's record of one page shard: its file name
// (relative to the corpus directory), page count, byte size, and the hex
// SHA-256 of its bytes.
type ShardInfo struct {
	File   string `json:"file"`
	Pages  int    `json:"pages"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// Manifest describes a sharded corpus: everything a consumer needs to plan
// a run without touching a page body. Truth judgments live in the sidecar
// named by TruthFile, never in the manifest, so the manifest stays small no
// matter how large the corpus grows.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name"`
	Lang          string `json:"lang"`
	// Workload names the page shape the corpus holds; absent (pre-refactor
	// corpora) means detail-page. Stored as the stable workload.Kind wire
	// string, omitted for detail-page so existing manifests stay byte-stable.
	Workload string `json:"workload,omitempty"`
	// Lexicon is the distant-supervision seed for title corpora: the known
	// <attribute, value> pairs the bootstrap matches against the titles in
	// place of dictionary-table harvesting. Empty on detail-page corpora.
	Lexicon []seed.LexiconEntry `json:"lexicon,omitempty"`
	// Generation counts manifest commits past the initial write: 0 (omitted,
	// so pre-append manifests stay byte-stable) for a freshly written corpus,
	// incremented by every append. Checkpoints and bundles record it so an
	// artifact can name the exact corpus state it was computed from.
	Generation int               `json:"generation,omitempty"`
	Pages      int               `json:"pages"`
	ShardSize  int               `json:"shard_size"`
	Queries    []string          `json:"queries,omitempty"`
	Aliases    map[string]string `json:"aliases,omitempty"`
	TruthFile  string            `json:"truth_file,omitempty"`
	TruthCount int               `json:"truth_count,omitempty"`
	Shards     []ShardInfo       `json:"shards"`
}

// WorkloadKind returns the manifest's workload as a typed Kind ("" resolves
// to detail-page). It errors on a manifest written by a future tool with a
// workload this build does not know.
func (m *Manifest) WorkloadKind() (workload.Kind, error) {
	return workload.Parse(m.Workload)
}

// pageWire is the JSONL form of one page inside a shard. The fixed two-key
// object keeps shard bytes deterministic.
type pageWire struct {
	ID   string `json:"id"`
	HTML string `json:"html"`
}

// Writer streams a corpus into the sharded on-disk format. Pages rotate into
// a new shard every ShardSize writes, truth judgments stream straight to the
// sidecar, and nothing is buffered beyond one bufio block — writing a corpus
// of any size takes O(1) memory. Close finalises the manifest (temp file +
// rename, so a crash mid-write never leaves a half-valid corpus: the
// manifest is the commit point).
type Writer struct {
	dir      string
	manifest Manifest

	shard      *os.File
	shardBuf   *bufio.Writer
	shardHash  hash.Hash
	shardPages int
	shardBytes int64

	truth    *os.File
	truthBuf *bufio.Writer

	// appending is set by OpenAppend: the truth sidecar opens in append mode
	// and Close commits a manifest whose Generation was bumped at open time.
	appending bool

	closed bool
}

// WriterOptions configures a corpus writer. Zero ShardSize means
// DefaultShardSize.
type WriterOptions struct {
	Name      string
	Lang      string
	ShardSize int
}

// NewWriter creates dir (and its shard subdirectory) and returns a streaming
// corpus writer.
func NewWriter(dir string, opt WriterOptions) (*Writer, error) {
	if opt.ShardSize <= 0 {
		opt.ShardSize = DefaultShardSize
	}
	if err := os.MkdirAll(filepath.Join(dir, shardDir), 0o755); err != nil {
		return nil, fmt.Errorf("corpus: create %s: %w", dir, err)
	}
	return &Writer{
		dir: dir,
		manifest: Manifest{
			SchemaVersion: SchemaVersion,
			Name:          opt.Name,
			Lang:          opt.Lang,
			ShardSize:     opt.ShardSize,
		},
	}, nil
}

// WritePage appends one page to the corpus, rotating shards as needed.
func (w *Writer) WritePage(d seed.Document) error {
	if w.shard == nil {
		if err := w.openShard(); err != nil {
			return err
		}
	}
	line, err := json.Marshal(pageWire{ID: d.ID, HTML: d.HTML})
	if err != nil {
		return fmt.Errorf("corpus: encode page %s: %w", d.ID, err)
	}
	line = append(line, '\n')
	n, err := w.shardBuf.Write(line)
	if err != nil {
		return err
	}
	w.shardHash.Write(line)
	w.shardBytes += int64(n)
	w.shardPages++
	w.manifest.Pages++
	if w.shardPages >= w.manifest.ShardSize {
		return w.closeShard()
	}
	return nil
}

// WriteTruth appends one referee judgment to the truth sidecar, creating it
// on first use. Under OpenAppend the sidecar opens in append mode, so the
// existing judgments are preserved.
func (w *Writer) WriteTruth(t gen.TruthTriple) error {
	if w.truth == nil {
		mode := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
		if w.appending {
			mode = os.O_WRONLY | os.O_CREATE | os.O_APPEND
		}
		f, err := os.OpenFile(filepath.Join(w.dir, truthFile), mode, 0o644)
		if err != nil {
			return fmt.Errorf("corpus: truth sidecar: %w", err)
		}
		w.truth = f
		w.truthBuf = bufio.NewWriter(f)
		w.manifest.TruthFile = truthFile
	}
	line, err := json.Marshal(t)
	if err != nil {
		return fmt.Errorf("corpus: encode truth: %w", err)
	}
	line = append(line, '\n')
	if _, err := w.truthBuf.Write(line); err != nil {
		return err
	}
	w.manifest.TruthCount++
	return nil
}

// SetQueries records the query log in the manifest (written at Close).
func (w *Writer) SetQueries(qs []string) { w.manifest.Queries = qs }

// MergeQueries unions new queries into the manifest's query log, preserving
// the existing order and appending only unseen entries — the append path's
// counterpart to SetQueries.
func (w *Writer) MergeQueries(qs []string) {
	seen := make(map[string]bool, len(w.manifest.Queries))
	for _, q := range w.manifest.Queries {
		seen[q] = true
	}
	for _, q := range qs {
		if !seen[q] {
			seen[q] = true
			w.manifest.Queries = append(w.manifest.Queries, q)
		}
	}
}

// SetWorkload records the corpus's page shape in the manifest. Detail-page
// (the default) is stored as the field's absence, so pre-refactor consumers
// and byte-stability tests see unchanged manifests.
func (w *Writer) SetWorkload(k workload.Kind) {
	if k.WithDefault() == workload.DetailPage {
		w.manifest.Workload = ""
		return
	}
	w.manifest.Workload = k.String()
}

// SetLexicon records the distant-supervision seed lexicon in the manifest.
func (w *Writer) SetLexicon(lex []seed.LexiconEntry) { w.manifest.Lexicon = lex }

// SetAliases records the attribute alias table in the manifest.
func (w *Writer) SetAliases(a map[string]string) { w.manifest.Aliases = a }

// Manifest returns the manifest as accumulated so far; it is complete only
// after Close.
func (w *Writer) Manifest() Manifest { return w.manifest }

// openShard starts the next shard under its temp name (shard-NNNN.jsonl.tmp);
// closeShard renames it into place once its bytes are complete. A crash
// mid-shard therefore leaves only an orphan .tmp file — never a final-named
// shard with partial content — and Open ignores anything the manifest does
// not list.
func (w *Writer) openShard() error {
	name := shardName(len(w.manifest.Shards))
	f, err := os.Create(filepath.Join(w.dir, shardDir, name+".tmp"))
	if err != nil {
		return fmt.Errorf("corpus: create shard: %w", err)
	}
	w.shard = f
	w.shardBuf = bufio.NewWriter(f)
	w.shardHash = sha256.New()
	w.shardPages = 0
	w.shardBytes = 0
	return nil
}

func (w *Writer) closeShard() error {
	if w.shard == nil {
		return nil
	}
	if err := w.shardBuf.Flush(); err != nil {
		w.shard.Close()
		return err
	}
	if err := w.shard.Close(); err != nil {
		return err
	}
	name := shardName(len(w.manifest.Shards))
	path := filepath.Join(w.dir, shardDir, name)
	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("corpus: commit shard: %w", err)
	}
	w.manifest.Shards = append(w.manifest.Shards, ShardInfo{
		File:   filepath.Join(shardDir, name),
		Pages:  w.shardPages,
		Bytes:  w.shardBytes,
		SHA256: hex.EncodeToString(w.shardHash.Sum(nil)),
	})
	w.shard = nil
	return nil
}

func shardName(i int) string { return fmt.Sprintf("shard-%04d.jsonl", i) }

// Close flushes the open shard and truth sidecar and writes the manifest via
// a temp file + rename. A Writer must be closed exactly once.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.closeShard(); err != nil {
		return err
	}
	if w.truth != nil {
		if err := w.truthBuf.Flush(); err != nil {
			w.truth.Close()
			return err
		}
		if err := w.truth.Close(); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(w.dir, ".corpus-*")
	if err != nil {
		return fmt.Errorf("corpus: manifest temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(w.manifest); err != nil {
		tmp.Close()
		return fmt.Errorf("corpus: encode manifest: %w", err)
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(w.dir, manifestFile))
}
