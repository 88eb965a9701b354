package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
)

// fuzzEntryKey and fuzzEntrySHA bind the cache FuzzShardEntry loads
// through; the checked-in cache-entry seed carries both, so it loads.
var (
	fuzzEntryKey = cacheKeyOf("fuzz", "ja", nil)
	fuzzEntrySHA = "0f1e2d3c4b5a69788796a5b4c3d2e1f00f1e2d3c4b5a69788796a5b4c3d2e1f0"
)

// FuzzShardEntry feeds arbitrary bytes to the one shard-entry decoder, as
// the file of shard 0. readEntry returns an entry or an error and never
// panics; the cache's load returns nil or an entry bound to exactly the
// shard it was asked for. The seeds under testdata/fuzz/FuzzShardEntry stay
// small (< 4 KB) so the fuzzer keeps its throughput.
func FuzzShardEntry(f *testing.F) {
	// One directory for every input: a fuzz process runs its inputs one at
	// a time, and a fresh directory per input would dominate each exec.
	c := openShardCache(f.TempDir(), fuzzEntryKey, []corpus.ShardInfo{{SHA256: fuzzEntrySHA, Pages: 1}}, nil)
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(c.dir, entryName(0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := readEntry(path)
		if (e == nil) == (err == nil) {
			t.Fatalf("readEntry = %v, %v: want an entry or an error", e, err)
		}
		if e := c.load(0); e != nil && (e.Key != fuzzEntryKey || e.Index != 0 || e.ShardSHA != fuzzEntrySHA) {
			t.Fatalf("load accepted an entry for key %q index %d shard %q", e.Key, e.Index, e.ShardSHA)
		}
	})
}
