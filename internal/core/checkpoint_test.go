package core

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/cleaning"
	"repro/internal/crf"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/triples"
)

func ckptConfig() Config {
	return Config{Iterations: 3, CRF: crf.Config{MaxIter: 30}}
}

func ckptCorpus(t *testing.T) Corpus {
	t.Helper()
	return corpusFor(generated(t, gen.VacuumCleaner(), 9, 90))
}

// uninterrupted returns the reference pipeline run without checkpointing,
// computed once per test binary; callers must not modify it.
func uninterrupted(t *testing.T) *Result {
	t.Helper()
	return memo(t, "uninterrupted", func() (*Result, error) {
		res, err := New(ckptConfig()).Run(ckptCorpus(t))
		if err != nil {
			return nil, err
		}
		if len(res.Iterations) != 3 || !res.StopReason.Completed() {
			return nil, fmt.Errorf("reference run incomplete: %s", res.Describe())
		}
		return res, nil
	})
}

// checkpointedRun memoises a checkpointed run: the first caller of key runs
// it into a scratch directory and keeps its result and the files it left;
// every caller gets that result and its own copy of the files in a fresh
// directory, so later runs may resume from or write to it. Callers must not
// modify the result.
func checkpointedRun(t *testing.T, key string, run func(ckpt string) (*Result, error)) (*Result, string) {
	t.Helper()
	type snapshot struct {
		res   *Result
		files map[string][]byte
	}
	snap := memo(t, "checkpointed|"+key, func() (snapshot, error) {
		ckpt := t.TempDir()
		res, err := run(ckpt)
		if err != nil {
			return snapshot{}, err
		}
		files := make(map[string][]byte)
		err = filepath.WalkDir(ckpt, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(ckpt, path)
			if err == nil {
				files[rel], err = os.ReadFile(path)
			}
			return err
		})
		return snapshot{res, files}, err
	})
	dir := t.TempDir()
	for rel, b := range snap.files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return snap.res, dir
}

// completedCheckpoint is ckptConfig() run to completion with checkpointing.
func completedCheckpoint(t *testing.T) (*Result, string) {
	t.Helper()
	return checkpointedRun(t, "completed", func(ckpt string) (*Result, error) {
		cfg := ckptConfig()
		cfg.Checkpoint = ckpt
		return New(cfg).Run(ckptCorpus(t))
	})
}

// killedCheckpoint is ckptConfig() with checkpointing, killed by a panic in
// iteration 3's training after iterations 1 and 2 were checkpointed.
func killedCheckpoint(t *testing.T) (*Result, string) {
	t.Helper()
	return checkpointedRun(t, "killed-train-3", func(ckpt string) (*Result, error) {
		cfg := ckptConfig()
		cfg.Checkpoint = ckpt
		cfg.FaultInjector = faultinject.New(
			faultinject.Fault{Stage: faultinject.StageTrain, Call: 3, Kind: faultinject.Panic})
		return New(cfg).Run(ckptCorpus(t))
	})
}

func TestCheckpointingDoesNotAlterResults(t *testing.T) {
	ref := uninterrupted(t)
	res, dir := completedCheckpoint(t)
	sameTriples(t, ref.FinalTriples(), res.FinalTriples())
	// Every iteration left both a state file and a model artifact.
	for iter := 1; iter <= 3; iter++ {
		if _, err := os.Stat(checkpointPath(dir, iter)); err != nil {
			t.Fatalf("missing checkpoint for iteration %d: %v", iter, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "model-00"+string(rune('0'+iter))+".paem")); err != nil {
			t.Fatalf("missing model artifact for iteration %d: %v", iter, err)
		}
	}
	// The model artifact round-trips through the bundle model codec.
	f, err := os.Open(filepath.Join(dir, "model-003.paem"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := bundle.DecodeModel(f)
	if err != nil {
		t.Fatalf("checkpointed model unreadable: %v", err)
	}
	if _, ok := m.(*crf.Model); !ok {
		t.Fatalf("decoded model is %T, want *crf.Model", m)
	}
}

// TestResumeReproducesUninterruptedRun is the satellite acceptance test:
// kill the run after iteration 2 via fault injection, resume from the
// checkpoint, and the final result matches an uninterrupted run
// triple-for-triple.
func TestResumeReproducesUninterruptedRun(t *testing.T) {
	ref := uninterrupted(t)

	// Interrupted run: a panic kills iteration 3's training.
	killed, dir := killedCheckpoint(t)
	if len(killed.Iterations) != 2 || killed.StopReason.Completed() {
		t.Fatalf("interrupted run: %s", killed.Describe())
	}

	// Resumed run: continues at iteration 3 and completes.
	cfg := ckptConfig()
	cfg.Checkpoint = dir
	cfg.Resume = true
	resumed, err := New(cfg).Run(ckptCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.StopReason.Completed() {
		t.Fatalf("resumed run did not complete: %s", resumed.Describe())
	}
	if len(resumed.Iterations) != 3 {
		t.Fatalf("resumed iterations = %d, want 3", len(resumed.Iterations))
	}
	// The resumed run retrains only iteration 3: its earlier entries come
	// verbatim from the checkpoint.
	sameTriples(t, killed.Iterations[1].Triples, resumed.Iterations[1].Triples)
	// Final output matches the uninterrupted reference exactly.
	sameTriples(t, ref.FinalTriples(), resumed.FinalTriples())
	for i := range ref.Iterations {
		sameTriples(t, ref.Iterations[i].Triples, resumed.Iterations[i].Triples)
	}
}

func TestResumeWithCompletedCheckpointRunsNothing(t *testing.T) {
	first, dir := completedCheckpoint(t)
	cfg := ckptConfig()
	cfg.Checkpoint = dir
	cfg.Resume = true
	again, err := New(cfg).Run(ckptCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Iterations) != 3 || !again.StopReason.Completed() {
		t.Fatalf("no-op resume: %s", again.Describe())
	}
	sameTriples(t, first.FinalTriples(), again.FinalTriples())
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	_, dir := completedCheckpoint(t)
	other := ckptConfig()
	other.Iterations = 4
	other.Checkpoint = dir
	other.Resume = true
	res, err := New(other).Run(ckptCorpus(t))
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
	if res == nil || !errors.Is(res.StopReason.Err, ErrCheckpointMismatch) {
		t.Fatalf("StopReason missing: %+v", res)
	}
}

// TestResumeFallsBackPastCorruptCheckpoint simulates a kill mid-write: a
// truncated newest checkpoint is skipped in favour of the previous one.
func TestResumeFallsBackPastCorruptCheckpoint(t *testing.T) {
	ref := uninterrupted(t)
	_, dir := killedCheckpoint(t)
	// A garbage file with a higher iteration number than any real one.
	if err := os.WriteFile(checkpointPath(dir, 99), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := ckptConfig()
	cfg.Checkpoint = dir
	cfg.Resume = true
	resumed, err := New(cfg).Run(ckptCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	sameTriples(t, ref.FinalTriples(), resumed.FinalTriples())
}

// TestResumeFallsBackPastMisnumberedCheckpoint: a newest checkpoint that
// decodes but whose iterations are not numbered 1..n is skipped like a
// corrupt one. The resume loop starts after the last entry's number, so a
// trailing "iteration -2" would otherwise rerun iterations -1, 0, 1, ….
func TestResumeFallsBackPastMisnumberedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	good := fuzzCkptIters[:1]
	if _, err := saveCheckpoint(dir, fuzzCkptFP, "", fuzzCkptIdent, good, nil); err != nil {
		t.Fatal(err)
	}
	bad := append([]IterationResult(nil), fuzzCkptIters...)
	bad[1].Iteration = -2
	wire := checkpointWire{Version: checkpointVersion, Fingerprint: fuzzCkptFP, Corpus: fuzzCkptIdent.stamp, Iterations: bad}
	if _, err := writeGob(checkpointPath(dir, 99), wire); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	rec := obs.New(obs.Options{Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	got, _, err := loadLatestCheckpoint(dir, fuzzCkptFP, "", fuzzCkptIdent, false, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, good) {
		t.Fatalf("loaded iterations %+v, want the older checkpoint's %+v", got, good)
	}
	if !strings.Contains(logged.String(), "iter-099.ckpt") {
		t.Fatalf("no warning names the skipped file; log:\n%s", logged.String())
	}
}

func TestResumeWithEmptyDirStartsFresh(t *testing.T) {
	cfg := ckptConfig()
	cfg.Checkpoint = t.TempDir()
	cfg.Resume = true
	res, err := New(cfg).Run(ckptCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 3 {
		t.Fatalf("fresh run under -resume: %s", res.Describe())
	}
}

// TestCheckpointFailureIsContained injects an error into the checkpoint
// stage: the write fails, the failure lands in the iteration's Errors, and
// the bootstrap itself is unaffected.
func TestCheckpointFailureIsContained(t *testing.T) {
	ref := uninterrupted(t)
	cfg := ckptConfig()
	cfg.Checkpoint = t.TempDir()
	cfg.FaultInjector = faultinject.New(
		faultinject.Fault{Stage: faultinject.StageCheckpoint, Call: 2, Kind: faultinject.Error})
	res, err := New(cfg).Run(ckptCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.StopReason.Completed() || len(res.Iterations) != 3 {
		t.Fatalf("checkpoint failure stopped the run: %s", res.Describe())
	}
	if errs := res.Iterations[1].Errors; len(errs) != 1 || !strings.Contains(errs[0], "injected") {
		t.Fatalf("iteration 2 errors = %v", errs)
	}
	if len(res.Iterations[0].Errors) != 0 || len(res.Iterations[2].Errors) != 0 {
		t.Fatal("contained error leaked to other iterations")
	}
	sameTriples(t, ref.FinalTriples(), res.FinalTriples())
}

func TestFingerprintIsStable(t *testing.T) {
	a := ckptConfig().withDefaults("ja").fingerprint()
	b := ckptConfig().withDefaults("ja").fingerprint()
	if a != b {
		t.Fatalf("fingerprint unstable:\n%s\n%s", a, b)
	}
	c := ckptConfig()
	c.DisableSemanticCleaning = true
	if c.withDefaults("ja").fingerprint() == a {
		t.Fatal("fingerprint ignores configuration changes")
	}
}

// The checkpoint every FuzzReadCheckpoint seed that should load was written
// with, and what loadLatestCheckpoint is asked to accept.
var (
	fuzzCkptFP    = "fuzz"
	fuzzCkptIdent = corpusIdent{stamp: corpusStamp{SHA256: "fuzz", Documents: 2, Shards: -1}}
	fuzzCkptIters = []IterationResult{
		{
			Iteration:         1,
			Triples:           []triples.Triple{{ProductID: "p1", Attribute: "重量", Value: "2kg"}},
			TaggedCandidates:  3,
			Veto:              cleaning.VetoStats{Symbol: 1, TooLong: 1},
			TrainingSequences: 4,
		},
		{
			Iteration: 2,
			Triples: []triples.Triple{
				{ProductID: "p1", Attribute: "重量", Value: "2kg"},
				{ProductID: "p2", Attribute: "色", Value: "赤"},
			},
			TaggedCandidates:  5,
			Veto:              cleaning.VetoStats{Markup: 1, Unpopular: 2},
			SemanticRemoved:   1,
			TrainingSequences: 6,
			Errors:            []string{"checkpoint write failed"},
		},
	}
)

// TestParentFormatCheckpointDecodes: the parent-format seed was written when
// the state file stored iterations through a private twin of
// IterationResult; it still decodes to the iterations it was written with.
func TestParentFormatCheckpointDecodes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReadCheckpoint", "parent-format"))
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "iter-002.ckpt")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	wire, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wire.Iterations, fuzzCkptIters) {
		t.Fatalf("parent-format iterations = %+v, want %+v", wire.Iterations, fuzzCkptIters)
	}
}

// FuzzReadCheckpoint feeds arbitrary bytes to the checkpoint decoder, and to
// the loader as the only state file of a checkpoint directory. Neither
// panics; each returns an error or at least one iteration, numbered 1..n.
// The seeds under testdata/fuzz/FuzzReadCheckpoint stay under 4 KB.
func FuzzReadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	path := checkpointPath(dir, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		wire, err := readCheckpoint(path)
		if (wire == nil) == (err == nil) {
			t.Fatalf("readCheckpoint = %v, %v: want a checkpoint or an error", wire, err)
		}
		if err == nil {
			checkNumbered(t, wire.Iterations)
		}
		iters, _, err := loadLatestCheckpoint(dir, fuzzCkptFP, "", fuzzCkptIdent, false, nil)
		if err == nil {
			checkNumbered(t, iters)
		}
	})
}

func checkNumbered(t *testing.T, iters []IterationResult) {
	t.Helper()
	if len(iters) == 0 {
		t.Fatal("accepted a checkpoint with no iterations")
	}
	for i, ir := range iters {
		if ir.Iteration != i+1 {
			t.Fatalf("entry %d is numbered %d", i, ir.Iteration)
		}
	}
}
