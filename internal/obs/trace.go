package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// TraceHeader is the HTTP header carrying a request's trace ID. The fleet
// router mints (or adopts) the ID, forwards the header on every attempt —
// retries and hedges included — and echoes it on every response, shed and
// timeout 503s included, so a client can always correlate its request with
// the fleet's /debug/traces view.
const TraceHeader = "X-Pae-Trace"

// Trace outcome labels recorded at Finish time.
const (
	TraceOK    = "ok"
	TraceError = "error"
	TraceShed  = "shed"
)

// NewTraceID mints a 16-hex-char request ID. Uniqueness, not secrecy, is the
// requirement — trace IDs are correlation keys, so the cheap global PRNG is
// the right tool on a hot admission path.
func NewTraceID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// TraceEvent is one structured per-hop record inside a trace: admission,
// queue wait, retry N against backend B, hedge fired/won, breaker open,
// shed, pin drained. Offset is relative to the trace start.
type TraceEvent struct {
	OffsetNanos int64             `json:"offset_ns"`
	Msg         string            `json:"msg"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// Trace is one request's event log, keyed by the ID that travelled in the
// X-Pae-Trace header. A nil *Trace is inert — the disabled-tracing hot path
// costs one nil check per hook, mirroring the Recorder contract. All methods
// are safe for concurrent use (retry and hedge attempts append from their
// own goroutines).
type Trace struct {
	mu     sync.Mutex
	id     string
	start  time.Time
	events []TraceEvent
	ended  bool
	end    time.Time
	status string
	code   int
	errMsg string
}

// NewTrace opens a trace for one request. id is the propagated (or freshly
// minted) trace ID.
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace ID ("" on a nil Trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Event appends one structured event; kvs are alternating key/value pairs
// (a trailing odd key is dropped).
func (t *Trace) Event(msg string, kvs ...string) {
	if t == nil {
		return
	}
	var attrs map[string]string
	if len(kvs) >= 2 {
		attrs = make(map[string]string, len(kvs)/2)
		for i := 0; i+1 < len(kvs); i += 2 {
			attrs[kvs[i]] = kvs[i+1]
		}
	}
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		OffsetNanos: time.Since(t.start).Nanoseconds(),
		Msg:         msg,
		Attrs:       attrs,
	})
	t.mu.Unlock()
}

// Finish closes the trace with its outcome: a status label (TraceOK /
// TraceError / TraceShed), the HTTP status the client saw, and the terminal
// error if any. Finishing twice keeps the first outcome.
func (t *Trace) Finish(status string, httpCode int, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.ended {
		t.ended = true
		t.end = time.Now()
		t.status = status
		t.code = httpCode
		if err != nil {
			t.errMsg = err.Error()
		}
	}
	t.mu.Unlock()
}

// TraceSnapshot is the serialised form of a finished (or still-running)
// trace — the /debug/traces row and the paeinspect trace input.
type TraceSnapshot struct {
	ID            string       `json:"id"`
	StartUnixNano int64        `json:"start_unix_nano"`
	DurationNanos int64        `json:"duration_ns"`
	Status        string       `json:"status"`
	HTTPStatus    int          `json:"http_status,omitempty"`
	Error         string       `json:"error,omitempty"`
	Events        []TraceEvent `json:"events,omitempty"`
}

// Snapshot freezes the trace. An unfinished trace reports its duration so
// far with an empty status.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.end
	if !t.ended {
		end = time.Now()
	}
	return TraceSnapshot{
		ID:            t.id,
		StartUnixNano: t.start.UnixNano(),
		DurationNanos: end.Sub(t.start).Nanoseconds(),
		Status:        t.status,
		HTTPStatus:    t.code,
		Error:         t.errMsg,
		Events:        append([]TraceEvent(nil), t.events...),
	}
}

type traceCtxKey struct{}

// ContextWithTrace attaches a trace to a context so lower layers (the
// extraction engine's per-request spans) can append events without new
// plumbing. A nil trace returns ctx unchanged.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFromContext returns the attached trace, or nil — and nil is safe to
// use, so callers never branch.
func TraceFromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// TraceLog keeps the interesting traces of a serving process: the N slowest
// and the N most recent errored/shed requests, in two bounded buffers. It is
// the store behind /debug/traces. A nil *TraceLog is inert.
type TraceLog struct {
	cap int

	mu      sync.Mutex
	slowest []TraceSnapshot // sorted slowest-first, ≤ cap entries
	errors  []TraceSnapshot // ring of the last cap errored traces
	next    int             // ring cursor into errors
	total   int64
}

// NewTraceLog builds a trace store keeping the n slowest and n most recent
// non-ok traces (n <= 0 defaults to 32).
func NewTraceLog(n int) *TraceLog {
	if n <= 0 {
		n = 32
	}
	return &TraceLog{cap: n}
}

// Record files a finished trace: errored and shed traces enter the error
// ring, and every trace competes for the slowest buffer.
func (l *TraceLog) Record(t *Trace) {
	if l == nil || t == nil {
		return
	}
	snap := t.Snapshot()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if snap.Status != TraceOK && snap.Status != "" {
		if len(l.errors) < l.cap {
			l.errors = append(l.errors, snap)
		} else {
			l.errors[l.next] = snap
		}
		l.next = (l.next + 1) % l.cap
	}
	if len(l.slowest) < l.cap {
		l.slowest = append(l.slowest, snap)
	} else if tail := len(l.slowest) - 1; snap.DurationNanos > l.slowest[tail].DurationNanos {
		l.slowest[tail] = snap
	} else {
		return
	}
	sort.SliceStable(l.slowest, func(i, j int) bool {
		return l.slowest[i].DurationNanos > l.slowest[j].DurationNanos
	})
}

// TraceLogSnapshot is the /debug/traces body: slowest-first exemplars plus
// the most recent errored traces, newest first.
type TraceLogSnapshot struct {
	Total   int64           `json:"total"`
	Slowest []TraceSnapshot `json:"slowest"`
	Errors  []TraceSnapshot `json:"errors"`
}

// Snapshot copies the current contents. Errors come newest-first.
func (l *TraceLog) Snapshot() TraceLogSnapshot {
	if l == nil {
		return TraceLogSnapshot{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := TraceLogSnapshot{
		Total:   l.total,
		Slowest: append([]TraceSnapshot(nil), l.slowest...),
	}
	for i := 0; i < len(l.errors); i++ {
		idx := (l.next - 1 - i + len(l.errors)) % len(l.errors)
		out.Errors = append(out.Errors, l.errors[idx])
	}
	return out
}
