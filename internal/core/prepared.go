// The prepared-corpus cache: every document is tokenized and PoS-tagged
// exactly once (the prep stage), and the result is what each downstream
// stage — tagging, relabeling, and the per-iteration word2vec retraining —
// streams, in corpus order, once per pass. It lives in memory (the default)
// or, with Config.Spill set, as one shard entry per corpus shard in a
// private directory, which caps resident memory at one corpus shard's
// sentences no matter how large the corpus is. Both yield the identical
// sentence sequence, so the choice never changes pipeline output.

package core

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/seed"
)

// prepared is the once-prepared corpus the post-prep stages read. The prep
// stage adds each document's sentences and cuts at every walk unit (see
// walk); forEach then streams the sentences as batches in corpus order, and
// every invocation replays the identical sequence. close releases the
// backing (for a spill, it deletes the entries); the corpus is unusable
// after.
type prepared struct {
	dir string // private entry directory under Config.Spill; "" = in memory
	rec *obs.Recorder

	// sents holds every sentence in memory; when spilling, only those added
	// since the last cut. mark is where the current unit starts.
	sents   []seed.SentenceOf
	mark    int
	entries int // spill entries written
	n       int // total sentences
}

// newPrepared readies an empty prepared corpus. spill is Config.Spill: empty
// keeps the corpus in memory; otherwise a private entry directory is created
// beneath it.
func newPrepared(spill string, rec *obs.Recorder) (*prepared, error) {
	p := &prepared{rec: rec}
	if spill == "" {
		return p, nil
	}
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return nil, fmt.Errorf("pae: spill dir: %w", err)
	}
	dir, err := os.MkdirTemp(spill, "pae-prep-*")
	if err != nil {
		return nil, fmt.Errorf("pae: spill dir: %w", err)
	}
	p.dir = dir
	return p, nil
}

// add appends one document's prepared sentences.
func (p *prepared) add(ss []seed.SentenceOf) {
	p.sents = append(p.sents, ss...)
	p.n += len(ss)
}

// cut ends the current unit and returns its sentences. When spilling, a
// non-empty unit is written as one entry and dropped from memory.
func (p *prepared) cut() ([]seed.SentenceOf, error) {
	unit := p.sents[p.mark:]
	if p.dir == "" {
		p.mark = len(p.sents)
		return unit, nil
	}
	p.sents = nil
	if len(unit) == 0 {
		return unit, nil
	}
	n, err := writeGob(filepath.Join(p.dir, entryName(p.entries)), &shardEntry{Index: p.entries, Sents: unit})
	if err != nil {
		return nil, fmt.Errorf("pae: spill entry: %w", err)
	}
	p.entries++
	p.rec.Add("prep.spill_bytes", n)
	p.rec.Add("prep.spill_shards", 1)
	return unit, nil
}

func (p *prepared) forEach(fn func(batch []seed.SentenceOf) error) error {
	if p.dir == "" {
		if len(p.sents) == 0 {
			return nil
		}
		return fn(p.sents)
	}
	for i := 0; i < p.entries; i++ {
		e, err := readEntry(filepath.Join(p.dir, entryName(i)))
		if err != nil {
			return err
		}
		if err := fn(e.Sents); err != nil {
			return err
		}
	}
	return nil
}

func (p *prepared) count() int { return p.n }

func (p *prepared) close() error {
	if p.dir == "" {
		return nil
	}
	return os.RemoveAll(p.dir)
}
