package main

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"leaf", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 70}}, 70},
		{"overlapping hedges count once", []span{{Start: 10, End: 40}, {Start: 30, End: 60}}, 50},
		{"nested inside another child", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"clipped to the parent", []span{{Start: -20, End: 10}, {Start: 90, End: 150}}, 80},
		{"outside the parent", []span{{Start: 100, End: 120}}, 100},
		{"covers all", []span{{Start: 0, End: 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerTreeAndAdopt(t *testing.T) {
	tr := newTracer("run-1")
	root := tr.start("job", 0)
	child := tr.start("core.run", root.id())
	child.end()
	// An obs span tree from a layer's Recorder lands under the benchmark
	// span that made the call.
	began := time.Now()
	tr.adopt(&obs.SpanReport{
		Name: "run", StartUnixNano: began.UnixNano(), DurationNanos: 50,
		Children: []*obs.SpanReport{{Name: "train", StartUnixNano: began.UnixNano(), DurationNanos: 30}},
	}, child.id())
	root.end()

	tree := newSpanTree(tr.snapshot())
	if len(tree.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(tree.spans))
	}
	for _, s := range tree.spans {
		if s.Run != "run-1" {
			t.Errorf("span %s has run %q", s.Name, s.Run)
		}
	}
	train := tree.named("train")
	run := tree.named("run")
	if len(train) != 1 || len(run) != 1 || train[0].Parent != run[0].ID || run[0].Parent != child.id() {
		t.Fatalf("adopted tree not linked: run=%v train=%v", run, train)
	}
	if got := tree.self(run[0]); got != 20 {
		t.Errorf("self(run) = %d, want 20", got)
	}
	if d := descendants(tree, root.id()); len(d) != 3 {
		t.Errorf("%d descendants of the job span, want 3", len(d))
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.start("x", 0)
	if sp.id() != 0 || sp.end() != 0 {
		t.Error("nil tracer produced a span")
	}
	tr.setHop("t", "client", 1)
	if tr.hop("t", "client") != 0 || tr.snapshot() != nil {
		t.Error("nil tracer kept state")
	}
}
