package gen

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/par"
)

// TestGenerateDeterministicAcrossWorkers is the package's half of the
// pipeline-wide parallel-determinism contract: the corpus — pages, truth,
// queries, domains — is byte-identical for every worker count.
func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	base := Generate(Garden(), Options{Seed: 9, Items: 40, Workers: 1})
	for _, workers := range []int{2, 8} {
		c := Generate(Garden(), Options{Seed: 9, Items: 40, Workers: workers})
		if len(c.Pages) != len(base.Pages) {
			t.Fatalf("workers=%d: %d pages, want %d", workers, len(c.Pages), len(base.Pages))
		}
		for i := range c.Pages {
			if c.Pages[i] != base.Pages[i] {
				t.Fatalf("workers=%d: page %d differs from serial run", workers, i)
			}
		}
		if !reflect.DeepEqual(c.Truth, base.Truth) {
			t.Fatalf("workers=%d: truth differs from serial run", workers)
		}
		if !reflect.DeepEqual(c.Queries, base.Queries) {
			t.Fatalf("workers=%d: queries differ from serial run", workers)
		}
		if !reflect.DeepEqual(c.Domains, base.Domains) {
			t.Fatalf("workers=%d: domains differ from serial run", workers)
		}
	}
}

// TestGenerateCtxFaults proves the page pool's failure semantics: an injected
// error surfaces as a wrapped ErrInjected, a canceled context stops
// generation, and a worker panic is contained and re-panicked as a typed
// *par.WorkerPanic rather than crashing the process from a bare goroutine.
func TestGenerateCtxFaults(t *testing.T) {
	opt := func(inj *faultinject.Injector) Options {
		return Options{Seed: 3, Items: 20, Workers: 4, Inject: inj}
	}

	inj := faultinject.New(faultinject.Fault{
		Stage: faultinject.StageGenPage, Call: 1, Kind: faultinject.Error,
	})
	if _, err := GenerateStreamCtx(context.Background(), Tennis(), opt(inj), nil); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected error not surfaced: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GenerateStreamCtx(ctx, Tennis(), opt(nil), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context not surfaced: %v", err)
	}

	defer func() {
		r := recover()
		wp, ok := r.(*par.WorkerPanic)
		if !ok {
			t.Fatalf("recover() = %v, want *par.WorkerPanic", r)
		}
		if wp.Item != 0 {
			t.Fatalf("panic attributed to item %d, want 0", wp.Item)
		}
	}()
	inj = faultinject.New(faultinject.Fault{
		Stage: faultinject.StageGenPage, Call: 1, Kind: faultinject.Panic,
	})
	GenerateStreamCtx(context.Background(), Tennis(), opt(inj), nil)
	t.Fatal("expected panic")
}
