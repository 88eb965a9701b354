package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/workload"
)

// runTitles bootstraps a generated title corpus through RunSource with the
// title workload and the corpus's own distant-supervision lexicon.
func runTitles(t *testing.T, gc *gen.Corpus, cfg Config) *Result {
	t.Helper()
	cfg.Workload = workload.Title
	res, err := New(cfg).RunSource(context.Background(), Input{
		Source:  corpus.NewSliceSource(gc.Pages),
		Queries: gc.Queries,
		Lang:    gc.Lang,
		Lexicon: gc.Lexicon,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTitleWorkloadEndToEnd(t *testing.T) {
	gc := gen.GenerateTitles(gen.VacuumCleaner(), gen.Options{Seed: 3, Items: 80})
	res := runTitles(t, gc, fastConfig())
	if len(res.SeedPairs) == 0 {
		t.Fatal("distant supervision produced no seed pairs")
	}
	if len(res.FinalTriples()) == 0 {
		t.Fatal("title bootstrap produced no triples")
	}
	// Every extracted value must come from a title; precision against the
	// planted truth is checked loosely — the pipeline must be clearly better
	// than chance, not bit-exact against a tuned number.
	truth := make(map[string]bool)
	for _, tr := range gc.Truth {
		truth[tr.ProductID+"\x00"+tr.Attribute+"\x00"+tr.Value] = tr.Correct
	}
	judged, correct := 0, 0
	for _, tr := range res.FinalTriples() {
		c, ok := truth[tr.ProductID+"\x00"+tr.Attribute+"\x00"+gen.NormalizeValue(tr.Value)]
		if !ok {
			continue
		}
		judged++
		if c {
			correct++
		}
	}
	if judged == 0 {
		t.Fatal("no extracted triple was judged by the planted truth")
	}
	if frac := float64(correct) / float64(judged); frac < 0.5 {
		t.Fatalf("judged precision = %.2f, want >= 0.5", frac)
	}

	b, err := res.Bundle()
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Workload != workload.Title {
		t.Fatalf("bundle workload = %q, want title", b.Manifest.Workload)
	}
	if b.Manifest.SchemaVersion != bundle.SchemaVersion {
		t.Fatalf("title bundle schema = %d, want %d", b.Manifest.SchemaVersion, bundle.SchemaVersion)
	}
}

func TestTitleWorkloadByteIdenticalAcrossWorkers(t *testing.T) {
	gc := gen.GenerateTitles(gen.VacuumCleaner(), gen.Options{Seed: 5, Items: 60})
	cfgW := func(workers int) Config {
		cfg := fastConfig()
		cfg.Parallelism = workers
		return cfg
	}
	base := runTitles(t, gc, cfgW(1))
	for _, workers := range []int{8} {
		res := runTitles(t, gc, cfgW(workers))
		if !reflect.DeepEqual(base.FinalTriples(), res.FinalTriples()) {
			t.Fatalf("title triples differ between workers=1 and workers=%d", workers)
		}
		if !reflect.DeepEqual(base.Iterations, res.Iterations) {
			t.Fatalf("iteration stats differ between workers=1 and workers=%d", workers)
		}
	}
}

func TestTitleWorkloadRequiresLexicon(t *testing.T) {
	gc := gen.GenerateTitles(gen.VacuumCleaner(), gen.Options{Seed: 3, Items: 20})
	cfg := fastConfig()
	cfg.Workload = workload.Title
	_, err := New(cfg).RunSource(context.Background(), Input{
		Source: corpus.NewSliceSource(gc.Pages), Queries: gc.Queries, Lang: gc.Lang,
	})
	if !errors.Is(err, ErrNoSeed) {
		t.Fatalf("title run without a lexicon = %v, want ErrNoSeed", err)
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	cfg := fastConfig()
	cfg.Workload = workload.Kind("list-page")
	gc := gen.Generate(gen.VacuumCleaner(), gen.Options{Seed: 1, Items: 10})
	_, err := New(cfg).RunSource(context.Background(), Input{
		Source: corpus.NewSliceSource(corpusFor(gc).Documents), Queries: gc.Queries, Lang: gc.Lang,
	})
	if !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("unknown workload = %v, want ErrUnknownWorkload", err)
	}
}

func TestCheckpointRejectsWorkloadMismatch(t *testing.T) {
	dir := t.TempDir()
	stamp := corpusIdent{stamp: corpusStamp{SHA256: "abc", Documents: 10, Shards: -1}}
	iters := []IterationResult{{Iteration: 1}}
	if _, err := saveCheckpoint(dir, "fp", workload.Title, stamp, iters, nil); err != nil {
		t.Fatal(err)
	}
	// Same workload resumes.
	got, _, err := loadLatestCheckpoint(dir, "fp", workload.Title, stamp, false, nil)
	if err != nil || len(got) != 1 {
		t.Fatalf("same-workload load = %v, %v; want 1 iteration", got, err)
	}
	// A detail-page run must be refused with an error naming both workloads,
	// before any fingerprint diagnostics muddy the message.
	_, _, err = loadLatestCheckpoint(dir, "fp", workload.DetailPage, stamp, false, nil)
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("cross-workload load = %v, want ErrCheckpointMismatch", err)
	}
	for _, name := range []string{"title", "detail-page"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("mismatch error %q does not name workload %q", err, name)
		}
	}
}

func TestCheckpointDetailPageDefaultEquivalence(t *testing.T) {
	// The zero Kind and the explicit detail-page kind are one workload: a
	// checkpoint stamped by either must resume under the other.
	dir := t.TempDir()
	stamp := corpusIdent{stamp: corpusStamp{SHA256: "abc", Documents: 10, Shards: -1}}
	iters := []IterationResult{{Iteration: 1}}
	if _, err := saveCheckpoint(dir, "fp", workload.DetailPage, stamp, iters, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadLatestCheckpoint(dir, "fp", "", stamp, false, nil); err != nil {
		t.Fatalf("zero-kind load of detail-page checkpoint = %v", err)
	}
	if _, _, err := loadLatestCheckpoint(dir, "fp", workload.DetailPage, stamp, false, nil); err != nil {
		t.Fatalf("explicit detail-page load = %v", err)
	}
}

func TestFingerprintWorkloadSuffix(t *testing.T) {
	base := fastConfig()
	dp := base
	dp.Workload = workload.DetailPage
	if got, want := dp.fingerprint(), base.fingerprint(); got != want {
		t.Fatalf("explicit detail-page changed the fingerprint:\n%s\n%s", got, want)
	}
	if strings.Contains(base.fingerprint(), "|wk=") {
		t.Fatalf("detail-page fingerprint carries a workload suffix: %s", base.fingerprint())
	}
	ti := base
	ti.Workload = workload.Title
	if !strings.HasSuffix(ti.fingerprint(), "|wk=title") {
		t.Fatalf("title fingerprint lacks the workload suffix: %s", ti.fingerprint())
	}
}
