// Iteration-granular checkpoint/resume. After every completed Tagger–Cleaner
// cycle the pipeline serialises the cumulative triple set, the per-iteration
// stats, and the trained model into Config.Checkpoint; a later run with
// Config.Resume continues from the last completed iteration. Because every
// stage of the pipeline is deterministic for a fixed corpus and
// configuration (sorted feature alphabets, per-iteration RNG seeds), the
// resumed run's final triples are byte-identical to an uninterrupted run's.

package core

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/bundle"
	"repro/internal/obs"
	"repro/internal/tagger"
	"repro/internal/workload"
)

const checkpointVersion = 2

// corpusStamp identifies the exact corpus a checkpoint was computed from: a
// SHA-256 over every document id and body in stream order, the document
// count, and — for sharded on-disk corpora — the shard cursor at the
// iteration boundary. Iterations are atomic, so a completed iteration has
// always consumed every shard: the cursor records the corpus's shard count
// (-1 for sources that are not content-addressed). Resume refuses a
// checkpoint whose stamp disagrees with the corpus it is reading; silently
// continuing a run over a different corpus would violate the
// byte-identical-resume contract.
type corpusStamp struct {
	SHA256    string
	Documents int
	Shards    int
}

// corpusIdent is everything a checkpoint records about the corpus it was
// computed from: the exact-match stamp above plus — for content-addressed
// sharded corpora — the manifest generation and the per-shard SHA-256 list.
// The shard list is what turns the binary "same corpus or not" decision into
// a three-way one: a checkpoint whose shard list is a strict prefix of the
// current corpus's was written before an append and is re-bootstrappable
// (appends never rewrite committed shards), while any other disagreement
// remains a hard mismatch.
type corpusIdent struct {
	stamp      corpusStamp
	generation int
	shardSHAs  []string
}

// isShardPrefix reports whether old is a non-empty strict prefix of cur —
// the grown-corpus signature.
func isShardPrefix(old, cur []string) bool {
	if len(old) == 0 || len(old) >= len(cur) {
		return false
	}
	for i, s := range old {
		if cur[i] != s {
			return false
		}
	}
	return true
}

// checkpointWire is one checkpoint file: every iteration completed so far
// (the cumulative triple set is the last entry's Triples) plus a
// configuration fingerprint, a workload stamp, and a corpus stamp that guard
// resumes against mismatched runs — a different configuration, a different
// page shape, or a different corpus. Workload was added after version 2
// shipped; gob zero-fills it on old files, and the empty string means
// detail-page, so pre-refactor checkpoints keep resuming without a version
// bump.
type checkpointWire struct {
	Version     int
	Fingerprint string
	Workload    string
	Corpus      corpusStamp
	// Generation and ShardSHAs carry the corpus identity beyond the exact-
	// match stamp: the manifest generation counter and the per-shard content
	// addresses at checkpoint time. Both were added after version 2 shipped;
	// gob zero-fills them on old files, and a nil shard list simply means the
	// checkpoint cannot be classified as "grown" — exactly the pre-append
	// behaviour — so no version bump (which would change every fingerprint,
	// and with it every bundle byte) is needed.
	Generation int
	ShardSHAs  []string
	// Iterations are stored as is. gob matches struct fields by name, so
	// files written when they went through a private twin of
	// IterationResult decode unchanged.
	Iterations []IterationResult
}

// Fingerprint summarises the configuration fields that determine the
// pipeline's output, exposed for the benchmark harness so BENCH reports can
// name the exact configuration they measured.
func (c Config) Fingerprint() string { return c.fingerprint() }

// fingerprint summarises the configuration fields that determine the
// pipeline's output. It deliberately skips function-valued hooks (Tokenizer,
// TokenizeValue, Oracle, the fault injector): they cannot be compared across
// processes, and the CLI cannot set them anyway.
func (c Config) fingerprint() string {
	combine := "nil"
	if c.Combine != nil {
		combine = fmt.Sprint(*c.Combine)
	}
	// Parallelism knobs (Config.Parallelism is not rendered below; the model
	// Workers fields ride along in the %+v) change wall-clock only, never
	// outputs, so they must not invalidate a resume or split the run cache.
	// LSTM.Batch stays: it changes the trained weights.
	c.CRF.Workers = 0
	c.LSTM.Workers = 0
	fp := fmt.Sprintf(
		"v%d|iters=%d|model=%s|combine=%s|minconf=%g|div=%t|synt=%t|sem=%t|attrs=%q|crf=%+v|lstm=%+v|veto=%+v|sem=%d/%g|seed=%g/%d/%d/%d",
		checkpointVersion, c.Iterations, c.Model, combine, c.MinConfidence,
		c.DisableDiversification, c.DisableSyntacticCleaning, c.DisableSemanticCleaning,
		c.AttrFilter, c.CRF, c.LSTM, c.Veto,
		c.Semantic.CoreSize, c.Semantic.MinSimilarity,
		c.Seed.AggThreshold, c.Seed.MinValueFreq, c.Seed.TopShapes, c.Seed.ValuesPerShape)
	// The workload suffix appears only off the default, so every detail-page
	// fingerprint — in checkpoints, bundles, BENCH reports — is byte-for-byte
	// what it was before workloads existed.
	if wk := c.Workload.WithDefault(); wk != workload.DetailPage {
		fp += "|wk=" + string(wk)
	}
	return fp
}

// fingerprintSansIters blanks the iteration count inside a configuration
// fingerprint. Two uses, both places where the schedule length genuinely
// does not shape the artifact: the shard cache (seed discovery and document
// preparation are corpus passes, untouched by how many bootstrap iterations
// follow) and incremental warm starts (the checkpointed run's final triples
// are labels, valid whatever schedule produced them — being able to refresh
// a 5-iteration model with a 1-iteration warm run is the point of warm
// starting). Exact resumes keep comparing full fingerprints: replaying
// iteration outputs under a different schedule would break byte-identity.
func fingerprintSansIters(fp string) string {
	const field = "|iters="
	i := strings.Index(fp, field)
	if i < 0 {
		return fp
	}
	j := strings.IndexByte(fp[i+1:], '|')
	if j < 0 {
		return fp
	}
	return fp[:i] + field + "*" + fp[i+1+j:]
}

func checkpointPath(dir string, iter int) string {
	return filepath.Join(dir, fmt.Sprintf("iter-%03d.ckpt", iter))
}

// saveCheckpoint writes the checkpoint for the just-completed iteration:
// the model artifact (via the model packages' own serialisers) and the
// gob-encoded run state, returning the state-file size in bytes. Both are
// committed through atomicfile, so a kill mid-write never leaves a truncated
// iter-*.ckpt behind.
func saveCheckpoint(dir, fp string, wk workload.Kind, ident corpusIdent, iters []IterationResult, model tagger.Model) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("pae: checkpoint dir: %w", err)
	}
	n := iters[len(iters)-1].Iteration
	if err := saveModel(dir, n, model); err != nil {
		return 0, err
	}
	wire := checkpointWire{
		Version: checkpointVersion, Fingerprint: fp, Corpus: ident.stamp,
		Generation: ident.generation, ShardSHAs: ident.shardSHAs, Iterations: iters,
	}
	// Detail-page is stamped as the empty string — the same value gob
	// zero-fills into pre-refactor checkpoints — so old and new detail-page
	// checkpoints mean the same thing to the loader.
	if k := wk.WithDefault(); k != workload.DetailPage {
		wire.Workload = string(k)
	}
	size, err := writeGob(checkpointPath(dir, n), wire)
	if err != nil {
		return 0, fmt.Errorf("pae: checkpoint write: %w", err)
	}
	return size, nil
}

// saveModel serialises the iteration's trained model next to the state file
// through the bundle model codec, so checkpoints and serving bundles share
// one on-disk model format (a single model-NNN.paem per iteration, ensembles
// included). The artifact is write-only: resume retrains from the state file
// and never reads it back.
func saveModel(dir string, iter int, model tagger.Model) error {
	path := filepath.Join(dir, fmt.Sprintf("model-%03d.paem", iter))
	_, err := atomicfile.Write(path, func(w io.Writer) error { return bundle.EncodeModel(w, model) })
	if errors.Is(err, bundle.ErrUnknownModel) {
		// Unknown model kinds (tests, future backends) skip the artifact;
		// resume only needs the state file.
		return nil
	}
	return err
}

// writeGob commits v, gob-encoded, at path and returns the bytes written.
func writeGob(path string, v any) (int64, error) {
	return atomicfile.Write(path, func(w io.Writer) error { return gob.NewEncoder(w).Encode(v) })
}

// readGob decodes the gob value stored at path into v.
func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewDecoder(bufio.NewReaderSize(f, 64<<10)).Decode(v)
}

// loadLatestCheckpoint returns the completed iterations of the newest valid
// checkpoint in dir. A corrupt or truncated newest file falls back to the
// next older one — logged as a warning through rec, since silently dropping
// completed iterations confuses operators; a fingerprint or version mismatch
// is a hard ErrCheckpointMismatch because silently restarting under a
// different configuration would violate the byte-identical-resume contract.
//
// A corpus disagreement is three-way. Exact stamp match: the iterations are
// resumable as-is (grown=false). The checkpoint's shard list is a non-empty
// strict prefix of the current corpus's: the corpus grew by append since the
// checkpoint; the iterations are returned with grown=true and the caller
// decides between a warm re-bootstrap (Config.Incremental) and a typed
// ErrCorpusGrown. Anything else — different shards, a shrunk corpus, or a
// checkpoint/source without shard addresses — stays a hard mismatch.
// (nil, false, nil) means "no checkpoint: start from scratch".
//
// incremental relaxes exactly one fingerprint field, and only for grown
// corpora: a warm start may run a different iteration schedule than the
// checkpointed bootstrap (see fingerprintSansIters). A same-corpus resume
// under a different schedule stays a hard mismatch even in incremental mode.
func loadLatestCheckpoint(dir, fp string, wk workload.Kind, ident corpusIdent, incremental bool, rec *obs.Recorder) ([]IterationResult, bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("pae: checkpoint dir: %w", err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "iter-") && strings.HasSuffix(name, ".ckpt") {
			files = append(files, name)
		}
	}
	if len(files) == 0 {
		return nil, false, nil
	}
	sort.Sort(sort.Reverse(sort.StringSlice(files)))
	var lastErr error
	for _, name := range files {
		wire, err := readCheckpoint(filepath.Join(dir, name))
		if err != nil {
			// Corrupt/truncated: try the previous checkpoint, but say so —
			// the resume silently redoing iterations is surprising.
			rec.Warn("skipping unreadable checkpoint", "file", name, "err", err)
			lastErr = err
			continue
		}
		// The workload stamp is checked before the fingerprint so a workload
		// mix-up gets named as such: the fingerprint differs too (it carries
		// the |wk= suffix), but "different configuration" would send an
		// operator diffing tuning knobs when the real problem is resuming a
		// title run over a detail-page checkpoint.
		if got := workload.Kind(wire.Workload).WithDefault(); got != wk.WithDefault() {
			return nil, false, fmt.Errorf("%w: %s was written by a %s run, this run is %s",
				ErrCheckpointMismatch, name, got, wk.WithDefault())
		}
		exact := wire.Fingerprint == fp
		if wire.Version != checkpointVersion ||
			(!exact && !(incremental && fingerprintSansIters(wire.Fingerprint) == fingerprintSansIters(fp))) {
			return nil, false, fmt.Errorf("%w: %s was written by a different configuration", ErrCheckpointMismatch, name)
		}
		grown := false
		if wire.Corpus != ident.stamp {
			if !isShardPrefix(wire.ShardSHAs, ident.shardSHAs) {
				return nil, false, fmt.Errorf(
					"%w: %s was written from a different corpus (checkpointed %.12s…/%d docs/%d shards, reading %.12s…/%d docs/%d shards)",
					ErrCheckpointMismatch, name,
					wire.Corpus.SHA256, wire.Corpus.Documents, wire.Corpus.Shards,
					ident.stamp.SHA256, ident.stamp.Documents, ident.stamp.Shards)
			}
			grown = true
		}
		if !exact && !grown {
			// The iteration schedules differ but the corpus did not grow:
			// this would be a resume, and resumes replay checkpointed
			// iteration outputs — only valid under the exact configuration.
			return nil, false, fmt.Errorf(
				"%w: %s was written under a different iteration schedule over this same corpus; a resume must use the same schedule (incremental mode only relaxes it for grown corpora)",
				ErrCheckpointMismatch, name)
		}
		return wire.Iterations, grown, nil
	}
	return nil, false, fmt.Errorf("pae: no readable checkpoint in %s: %w", dir, lastErr)
}

// readCheckpoint decodes the state file at path. A file whose iterations
// are not numbered 1..n in order is rejected like a corrupt one: the resume
// loop starts after the last entry's number and seeds training from it, so
// the numbering must be the one this package writes.
func readCheckpoint(path string) (*checkpointWire, error) {
	var wire checkpointWire
	if err := readGob(path, &wire); err != nil {
		return nil, fmt.Errorf("pae: checkpoint decode %s: %w", path, err)
	}
	if len(wire.Iterations) == 0 {
		return nil, fmt.Errorf("pae: checkpoint %s has no iterations", path)
	}
	for i, ir := range wire.Iterations {
		if ir.Iteration != i+1 {
			return nil, fmt.Errorf("pae: checkpoint %s: entry %d is numbered iteration %d", path, i+1, ir.Iteration)
		}
	}
	return &wire, nil
}
