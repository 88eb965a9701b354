package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer. The benchmark records spans around
// its own calls into each layer, and adopts the stage spans the core layer
// already emits, so one tree covers a whole operation. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	Run    string `json:"run"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of one traced run in memory until the run writes
// them out. A nil *tracer records nothing, so untraced runs pass nil and pay
// one nil check per call site.
type tracer struct {
	run   string
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
	// hops maps a request's trace ID and layer to the span that layer opened
	// for it, so a span opened behind an HTTP hop finds its parent.
	hops map[string]int64
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now(), hops: make(map[string]int64)}
}

// active is a span that has started and not yet ended.
type active struct {
	t     *tracer
	s     span
	start time.Time
}

// start opens a span under parent (0 for a root).
func (t *tracer) start(name string, parent int64) *active {
	if t == nil {
		return nil
	}
	now := time.Now()
	return &active{t: t, start: now, s: span{
		Run: t.run, ID: t.next.Add(1), Parent: parent, Name: name,
		Start: now.Sub(t.epoch).Nanoseconds(),
	}}
}

// id is the span's ID, or 0 for a nil span (the parent of a root).
func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// end closes the span and returns its duration.
func (a *active) end() time.Duration {
	if a == nil {
		return 0
	}
	now := time.Now()
	a.s.End = now.Sub(a.t.epoch).Nanoseconds()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
	return now.Sub(a.start)
}

// setHop records that layer opened span id for the request with trace ID
// tid; hop looks it up (0 when unknown).
func (t *tracer) setHop(tid, layer string, id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.hops[tid+"/"+layer] = id
	t.mu.Unlock()
}

func (t *tracer) hop(tid, layer string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hops[tid+"/"+layer]
}

// adopt copies an obs span tree (the stage spans a layer's Recorder emits)
// under parent, so layer-internal stages join the benchmark's tree.
func (t *tracer) adopt(rep *obs.SpanReport, parent int64) {
	if t == nil || rep == nil {
		return
	}
	start := rep.StartUnixNano - t.epoch.UnixNano()
	s := span{
		Run: t.run, ID: t.next.Add(1), Parent: parent, Name: rep.Name,
		Start: start, End: start + rep.DurationNanos,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	for _, c := range rep.Children {
		t.adopt(c, s.ID)
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) error {
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// spanTree indexes spans by parent for self-time queries.
type spanTree struct {
	spans    []span
	children map[int64][]span
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: make(map[int64][]span)}
	for _, s := range spans {
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// named returns every span with the given name.
func (t *spanTree) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// self is the span's duration minus the part of it that its children
// cover. Overlapping children (hedged attempts, parallel stages) count once.
func (t *spanTree) self(s span) int64 {
	return selfTime(s, t.children[s.ID])
}

// selfTime is s's duration minus the union of the children's intervals,
// each clipped to s.
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return s.dur() - covered
}
