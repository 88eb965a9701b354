// The incremental shard cache: per-shard memoization of the two expensive
// corpus passes (dictionary-table/lexicon seed discovery and tokenize +
// PoS-tag preparation), keyed by shard content address. It exists for one
// scenario — a corpus grown by append — where every committed shard is
// byte-identical to the previous run's, so re-reading and re-tokenizing the
// old shards is pure waste. With Config.Checkpoint set and a source that
// implements corpus.ContentAddressed, each run writes one cache entry per
// shard under <checkpoint>/shardcache and a later run over a grown corpus
// replays the longest valid shard prefix from cache, touching disk only for
// the appended shards.
//
// Reuse is prefix-only and byte-exact by construction:
//
//   - Prefix-only, because every derived artifact (the seed candidate list,
//     the prepared-sentence stream, the corpus stamp) is ordered by corpus
//     position; a mid-stream hole would force recomputing everything after
//     it anyway. Appends only ever extend the shard list, so the prefix is
//     exactly the previous corpus.
//   - Byte-exact, because seed discovery and document preparation are
//     strictly per-document (chunk grouping never changes their output), the
//     per-document results are replayed in identical corpus order, and each
//     entry carries the marshaled SHA-256 state of the corpus stamp hash
//     after its shard — so a run that reuses k shards resumes the rolling
//     hash mid-stream and still produces the identical corpus stamp.
//
// A cache entry that is missing, stale (different shard SHA or derivation
// key), or unreadable simply ends the reusable prefix; the cache can be
// deleted at any time and costs one recomputation. Entries are invisible to
// resume correctness: they are a performance layer under the checkpoint
// contract, never an input to it.

package core

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/seed"
)

// shardCacheDir is the subdirectory of Config.Checkpoint holding the cache.
const shardCacheDir = "shardcache"

// shardEntry is the one on-disk form of prepared corpus work: what the two
// corpus passes derive from one corpus shard. A shard-cache entry carries
// every field; a spill entry (see prepared) carries only Index and Sents.
type shardEntry struct {
	// Key is the derivation key: a hash over the configuration fingerprint
	// (with the iteration count blanked — the schedule never shapes these
	// corpus passes), the corpus language, and the seed lexicon — every
	// out-of-band input that changes what discovery or preparation produce.
	// A key mismatch means the cached derivation answers a different
	// question.
	Key string
	// Index and ShardSHA bind the entry to one content-addressed shard.
	Index    int
	ShardSHA string
	// Docs is the shard's document count.
	Docs int
	// Raw is the seed pass's per-shard output: the dictionary-table (or
	// lexicon-match) candidates of this shard's documents, in corpus order.
	Raw []seed.Candidate
	// Sents is the prep pass's per-shard output: the tokenized and
	// PoS-tagged sentences of this shard's documents, in corpus order.
	Sents []seed.SentenceOf
	// HashState is the marshaled SHA-256 state of the corpus stamp hash
	// after consuming shards 0..Index, so a prefix replay resumes the
	// rolling hash exactly where the cached run left it.
	HashState []byte
}

// cacheKeyOf computes the derivation key binding cache entries to the
// configuration that produced them.
func cacheKeyOf(fingerprint, lang string, lexicon []seed.LexiconEntry) string {
	h := sha256.New()
	io.WriteString(h, fingerprint)
	h.Write([]byte{0})
	io.WriteString(h, lang)
	h.Write([]byte{0})
	for _, e := range lexicon {
		io.WriteString(h, e.Attr)
		h.Write([]byte{0})
		io.WriteString(h, e.Value)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// shardCache mediates reads and writes of the per-shard cache for one run.
type shardCache struct {
	dir   string // <checkpoint>/shardcache
	key   string
	infos []corpus.ShardInfo
	rec   *obs.Recorder

	// prefix is the number of leading shards whose entries validated, fixed
	// by the seed pass and replayed by the prep pass.
	prefix int
	// staged holds fresh shards' seed-pass halves until the prep pass
	// completes them with sentences and commits them to disk.
	staged map[int]*shardEntry
}

// openShardCache returns the cache for a checkpointed run over a content-
// addressed source. It creates nothing on disk until the first commit.
func openShardCache(checkpointDir, key string, infos []corpus.ShardInfo, rec *obs.Recorder) *shardCache {
	return &shardCache{
		dir:    filepath.Join(checkpointDir, shardCacheDir),
		key:    key,
		infos:  infos,
		rec:    rec,
		staged: make(map[int]*shardEntry),
	}
}

// entryName names the entry file for shard (or spill unit) i.
func entryName(i int) string { return fmt.Sprintf("shard-%04d.gob", i) }

// readEntry decodes the entry stored at path.
func readEntry(path string) (*shardEntry, error) {
	var e shardEntry
	if err := readGob(path, &e); err != nil {
		return nil, fmt.Errorf("pae: shard entry %s: %w", path, err)
	}
	return &e, nil
}

// load reads and validates the entry for shard i. It returns nil (no error)
// when the entry is missing, unreadable, or does not answer for this exact
// shard and derivation — all of which just mean "recompute".
func (c *shardCache) load(i int) *shardEntry {
	e, err := readEntry(filepath.Join(c.dir, entryName(i)))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.rec.Warn("skipping unreadable shard-cache entry", "index", i, "err", err)
		}
		return nil
	}
	if e.Key != c.key || e.Index != i || i >= len(c.infos) || e.ShardSHA != c.infos[i].SHA256 {
		return nil
	}
	// The stamp hash must be resumable from this entry, or the reused
	// prefix could not reproduce the corpus stamp byte for byte.
	if err := restoreHash(sha256.New(), e.HashState); err != nil {
		c.rec.Warn("shard-cache entry has unusable hash state", "index", i, "err", err)
		return nil
	}
	return e
}

// replaySeed replays the longest valid cached shard prefix into the seed
// pass: consume sees each entry in shard order. It fixes c.prefix and, when
// at least one shard was reused, restores the corpus stamp hash h to the
// state after the last reused shard.
func (c *shardCache) replaySeed(h hash.Hash, consume func(*shardEntry)) error {
	var state []byte
	for i := range c.infos {
		e := c.load(i)
		if e == nil {
			break
		}
		consume(e)
		state = e.HashState
		c.prefix = i + 1
	}
	if c.prefix > 0 {
		if err := restoreHash(h, state); err != nil {
			// load() already proved the state unmarshals; failing here means
			// the hash implementation changed mid-process — not recoverable
			// into a byte-identical stamp.
			return fmt.Errorf("pae: shard cache: restore corpus hash: %w", err)
		}
	}
	return nil
}

// stage records the seed-pass half of a fresh shard's entry; commit writes
// the whole entry once the prep pass has its sentences.
func (c *shardCache) stage(i int, raw []seed.Candidate, hashState []byte) {
	c.staged[i] = &shardEntry{
		Key: c.key, Index: i, ShardSHA: c.infos[i].SHA256,
		Docs: c.infos[i].Pages, Raw: raw, HashState: hashState,
	}
}

// commit completes a staged entry with the prep pass's sentences and writes
// it. Cache writes are advisory: a failure is logged and the run continues
// (the shard is simply recomputed next time).
func (c *shardCache) commit(i int, sents []seed.SentenceOf) {
	e := c.staged[i]
	if e == nil {
		return
	}
	delete(c.staged, i)
	e.Sents = sents
	err := os.MkdirAll(c.dir, 0o755)
	if err == nil {
		_, err = writeGob(filepath.Join(c.dir, entryName(i)), e)
	}
	if err != nil {
		c.rec.Warn("shard-cache write failed; run continues", "index", i, "err", err)
	}
}

// restoreHash loads a marshaled hash state into h.
func restoreHash(h hash.Hash, state []byte) error {
	u, ok := h.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("hash state not restorable")
	}
	return u.UnmarshalBinary(state)
}

// marshalHash snapshots h's state; sha256 always implements the marshaler.
func marshalHash(h hash.Hash) []byte {
	m, ok := h.(encoding.BinaryMarshaler)
	if !ok {
		return nil
	}
	b, err := m.MarshalBinary()
	if err != nil {
		return nil
	}
	return b
}
