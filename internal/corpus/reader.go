package corpus

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/seed"
)

// Reader opens an on-disk sharded corpus directory and presents one view of
// it: the Manifest, a streaming Source, and the truth judgments. Page bodies
// are never loaded eagerly; Source streams them.
type Reader struct {
	dir string
	// Manifest is the corpus metadata.
	Manifest Manifest
}

// ReadManifest reads and validates the sharded manifest of dir without
// opening any shard. It fails with ErrNotCorpus when corpus.json is absent.
func ReadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s has no %s", ErrNotCorpus, dir, manifestFile)
		}
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if m.SchemaVersion != SchemaVersion {
		return nil, &VersionError{Got: m.SchemaVersion, Want: SchemaVersion}
	}
	return &m, nil
}

// IsDir reports whether dir looks like a sharded corpus directory (it has a
// corpus.json manifest).
func IsDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestFile))
	return err == nil
}

// Open opens a sharded corpus directory. It validates the manifest but reads
// no page bodies; those stream through Source.
func Open(dir string) (*Reader, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	return &Reader{dir: dir, Manifest: *m}, nil
}

// Orphans lists stray temp files a crashed writer left behind — manifest
// temps (.corpus-*) in the corpus root and uncommitted shard temps
// (shard-*.jsonl.tmp) in the shard directory — as paths relative to the
// corpus directory, sorted. Orphans are harmless (Open and Source consult
// only the manifest, which names none of them) but `paeinspect corpus
// -verify` reports them so operators can clean up after a crash.
func (r *Reader) Orphans() ([]string, error) {
	var out []string
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".corpus-") && !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	shards, err := os.ReadDir(filepath.Join(r.dir, shardDir))
	if err != nil {
		if os.IsNotExist(err) {
			sort.Strings(out)
			return out, nil
		}
		return nil, err
	}
	for _, e := range shards {
		if strings.HasSuffix(e.Name(), ".tmp") && !e.IsDir() {
			out = append(out, filepath.Join(shardDir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// Source returns a fresh streaming Source over the corpus pages. Sources are
// independent; each maintains its own cursor.
func (r *Reader) Source() Source {
	return &DirSource{dir: r.dir, manifest: r.Manifest}
}

// Truth returns the referee judgments streamed from the truth.jsonl
// sidecar. A corpus without truth returns (nil, nil).
func (r *Reader) Truth() ([]gen.TruthTriple, error) {
	if r.Manifest.TruthFile == "" {
		return nil, nil
	}
	return readTruth(filepath.Join(r.dir, r.Manifest.TruthFile))
}

// EvalCorpus assembles the gen.Corpus view that eval.NewTruth consumes —
// name, language, alias table and truth judgments — from the corpus
// metadata. This is the one conversion point between on-disk corpora and the
// evaluator; callers must not hand-build gen.Corpus from manifest fields.
// It returns (nil, nil) when the corpus carries no truth.
func (r *Reader) EvalCorpus() (*gen.Corpus, error) {
	truth, err := r.Truth()
	if err != nil {
		return nil, err
	}
	if len(truth) == 0 {
		return nil, nil
	}
	aliases := r.Manifest.Aliases
	if aliases == nil {
		aliases = map[string]string{}
	}
	return &gen.Corpus{
		Name:    r.Manifest.Name,
		Lang:    r.Manifest.Lang,
		Aliases: aliases,
		Truth:   truth,
		Domains: map[string]map[string]bool{},
	}, nil
}

func readTruth(path string) ([]gen.TruthTriple, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []gen.TruthTriple
	br := bufio.NewReader(f)
	for line := 1; ; line++ {
		raw, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(raw)) > 0 {
			var t gen.TruthTriple
			if jerr := json.Unmarshal(raw, &t); jerr != nil {
				return nil, fmt.Errorf("%w: %s line %d: %v", ErrCorrupt, path, line, jerr)
			}
			out = append(out, t)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// DirSource streams pages out of a sharded corpus, one shard file open at a
// time, verifying each shard's SHA-256 fingerprint and page count against
// the manifest as it crosses the shard boundary. Memory is bounded by one
// page line plus one bufio block, independent of corpus size.
type DirSource struct {
	dir      string
	manifest Manifest

	shard int // index of the shard currently open (or next to open)
	file  *os.File
	br    *bufio.Reader
	hash  hash.Hash
	pages int // pages read from the current shard

	rec    *obs.Recorder
	parent *obs.Span
	span   *obs.Span
}

// Instrument attaches a telemetry recorder: every shard open bumps
// corpus.shards, every byte read bumps corpus.bytes_read, and each shard
// gets a corpus.shard child span under parent.
func (s *DirSource) Instrument(rec *obs.Recorder, parent *obs.Span) {
	s.rec = rec
	s.parent = parent
}

// Manifest returns the corpus manifest.
func (s *DirSource) Manifest() Manifest { return s.manifest }

// ShardInfos returns the manifest's per-shard records — the content
// addresses the incremental bootstrap keys its shard cache on (the
// ContentAddressed interface).
func (s *DirSource) ShardInfos() []ShardInfo { return s.manifest.Shards }

// Generation returns the manifest's append-generation counter.
func (s *DirSource) Generation() int { return s.manifest.Generation }

// SeekShard positions the source at the first page of shard i, closing any
// open shard. Consumers that reuse cached per-shard work (the incremental
// bootstrap) seek past the reused prefix instead of re-reading it.
func (s *DirSource) SeekShard(i int) error {
	if i < 0 || i > len(s.manifest.Shards) {
		return fmt.Errorf("corpus: seek to shard %d of %d", i, len(s.manifest.Shards))
	}
	s.closeShard(nil)
	s.shard = i
	return nil
}

// Next returns the next page, crossing shard boundaries transparently. The
// end of the final shard returns io.EOF.
func (s *DirSource) Next() (seed.Document, error) {
	for {
		if s.file == nil {
			if s.shard >= len(s.manifest.Shards) {
				return seed.Document{}, io.EOF
			}
			if err := s.openShard(); err != nil {
				return seed.Document{}, err
			}
		}
		raw, err := s.br.ReadBytes('\n')
		if len(bytes.TrimSpace(raw)) > 0 {
			s.hash.Write(raw)
			s.pages++
			var p pageWire
			if jerr := json.Unmarshal(raw, &p); jerr != nil {
				info := s.manifest.Shards[s.shard]
				s.closeShard(jerr)
				return seed.Document{}, fmt.Errorf("%w: %s page %d: %v", ErrCorrupt, info.File, s.pages, jerr)
			}
			if err == io.EOF {
				// Final line without a trailing newline: the writer always
				// terminates lines, so this is a truncated shard — but the
				// fingerprint check below reports it more precisely.
				if ferr := s.finishShard(); ferr != nil {
					return seed.Document{}, ferr
				}
			}
			return seed.Document{ID: p.ID, HTML: p.HTML}, nil
		}
		if err == io.EOF {
			if ferr := s.finishShard(); ferr != nil {
				return seed.Document{}, ferr
			}
			continue
		}
		if err != nil {
			s.closeShard(err)
			return seed.Document{}, err
		}
	}
}

func (s *DirSource) openShard() error {
	info := s.manifest.Shards[s.shard]
	f, err := os.Open(filepath.Join(s.dir, info.File))
	if err != nil {
		return fmt.Errorf("%w: open shard: %v", ErrCorrupt, err)
	}
	s.file = f
	s.br = bufio.NewReaderSize(f, 64<<10)
	s.hash = sha256.New()
	s.pages = 0
	if s.rec != nil {
		s.rec.Add("corpus.shards", 1)
	}
	if s.parent != nil {
		s.span = s.parent.Child("corpus.shard")
		s.span.SetAttr("file", info.File)
		s.span.SetAttrInt("shard", int64(s.shard))
	}
	return nil
}

// finishShard verifies the fully read shard against the manifest and
// advances to the next one.
func (s *DirSource) finishShard() error {
	info := s.manifest.Shards[s.shard]
	sum := hex.EncodeToString(s.hash.Sum(nil))
	var err error
	switch {
	case s.pages != info.Pages:
		err = fmt.Errorf("%w: %s holds %d pages, manifest says %d", ErrCorrupt, info.File, s.pages, info.Pages)
	case sum != info.SHA256:
		err = fmt.Errorf("%w: %s hashes to %.12s…, manifest says %.12s…", ErrFingerprint, info.File, sum, info.SHA256)
	}
	if s.rec != nil {
		s.rec.Add("corpus.bytes_read", info.Bytes)
	}
	if s.span != nil {
		s.span.SetAttrInt("pages", int64(s.pages))
		s.span.SetAttrInt("bytes", info.Bytes)
	}
	s.closeShard(err)
	if err != nil {
		return err
	}
	s.shard++
	return nil
}

func (s *DirSource) closeShard(err error) {
	if s.file != nil {
		s.file.Close()
		s.file = nil
		s.br = nil
	}
	if s.span != nil {
		s.span.End(err)
		s.span = nil
	}
}

// Reset rewinds to the first page of the first shard.
func (s *DirSource) Reset() error {
	s.closeShard(nil)
	s.shard = 0
	return nil
}

// Close releases the open shard, if any.
func (s *DirSource) Close() error {
	s.closeShard(nil)
	return nil
}
