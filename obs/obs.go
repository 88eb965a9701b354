// Package obs is the public face of the pipeline's observability layer.
// It re-exports internal/obs so library users can hand pae.Config.Obs a
// live Recorder, read run reports, and serve the debug endpoint — the same
// machinery cmd/paerun wires up behind -v, -report and -debug-addr.
//
// Everything is pure stdlib and nil-safe: a nil *Recorder is inert, so the
// pipeline costs one nil check per instrumentation hook when observability
// is disabled (the default).
//
//	rec := obs.New(obs.Options{})
//	result, err := pae.Run(corpus, pae.Config{Obs: rec})
//	report := rec.Snapshot()
//	_ = report.WriteFile("run.json")
package obs

import "repro/internal/obs"

// Recorder collects spans, metrics and events for one pipeline run.
// Pass it via pae.Config.Obs; a nil Recorder disables all instrumentation.
type Recorder = obs.Recorder

// Options configures a Recorder (slog destination, clock override,
// runtime-stats suppression for deterministic output).
type Options = obs.Options

// Span is one timed node of the run → iteration → stage tree.
type Span = obs.Span

// Report is the machine-readable run report: the closed span tree plus all
// counters, gauges, histograms and series (cmd/paerun -report).
type Report = obs.Report

// SpanReport is one serialised span within a Report.
type SpanReport = obs.SpanReport

// SpanTiming names a span path with its duration (Report.SlowestSpans).
type SpanTiming = obs.SpanTiming

// FunnelRow is one bootstrap iteration of the triple funnel
// (tagged → veto-killed → semantic-killed → oracle-removed → triples).
type FunnelRow = obs.FunnelRow

// HistogramReport is the serialised form of a duration histogram.
type HistogramReport = obs.HistogramReport

// Point is one step of a training series (e.g. per-OWL-QN-iteration loss).
type Point = obs.Point

// Trace is one request's structured event log, keyed by the ID carried in
// the X-Pae-Trace header; nil is inert.
type Trace = obs.Trace

// TraceEvent is one per-hop record inside a Trace.
type TraceEvent = obs.TraceEvent

// TraceSnapshot is the serialised form of a Trace (/debug/traces rows).
type TraceSnapshot = obs.TraceSnapshot

// TraceLog keeps the N slowest and N most recent errored traces; nil is
// inert.
type TraceLog = obs.TraceLog

// TraceLogSnapshot is the /debug/traces body.
type TraceLogSnapshot = obs.TraceLogSnapshot

// Window is a rolling-window latency histogram yielding live p50/p99/p999;
// nil is inert.
type Window = obs.Window

// WindowOptions configures a Window (bucket bounds, width, epoch count).
type WindowOptions = obs.WindowOptions

// WindowSnapshot is a Window's current count, sum and quantiles.
type WindowSnapshot = obs.WindowSnapshot

// TraceHeader is the HTTP header carrying a request's trace ID.
const TraceHeader = obs.TraceHeader

// Trace outcome labels recorded at Trace.Finish time.
const (
	TraceOK    = obs.TraceOK
	TraceError = obs.TraceError
	TraceShed  = obs.TraceShed
)

// ContentTypePrometheus is the Content-Type of Recorder.WritePrometheus
// output (the Prometheus text exposition format).
const ContentTypePrometheus = obs.ContentTypePrometheus

// NewTrace opens a trace for one request.
func NewTrace(id string) *Trace { return obs.NewTrace(id) }

// NewTraceID mints a 16-hex-char request ID.
func NewTraceID() string { return obs.NewTraceID() }

// NewTraceLog builds a trace store keeping the n slowest and n most recent
// non-ok traces.
func NewTraceLog(n int) *TraceLog { return obs.NewTraceLog(n) }

// ContextWithTrace attaches a trace to a context; TraceFromContext reads it
// back (nil when absent — and nil is safe to use).
var (
	ContextWithTrace = obs.ContextWithTrace
	TraceFromContext = obs.TraceFromContext
)

// NewWindow builds a standalone rolling window (Recorder.Window registers
// one on the shared registry instead).
func NewWindow(opts WindowOptions) *Window { return obs.NewWindow(opts) }

// Millis converts a seconds-valued quantile to milliseconds for display.
func Millis(seconds float64) float64 { return obs.Millis(seconds) }

// DefaultBuckets returns the run-lifetime histogram bounds (100µs–5min);
// LatencyBuckets the serving-latency bounds (1ms–30s). Pass either to
// Recorder.SetBuckets before the first observation lands.
func DefaultBuckets() []float64 { return obs.DefaultBuckets() }

// LatencyBuckets returns ms-scale bounds for serving-latency histograms.
func LatencyBuckets() []float64 { return obs.LatencyBuckets() }

// Span status values, mirroring the pipeline's error taxonomy.
const (
	StatusOK       = obs.StatusOK
	StatusError    = obs.StatusError
	StatusPanic    = obs.StatusPanic
	StatusCanceled = obs.StatusCanceled
	StatusOpen     = obs.StatusOpen
)

// SchemaVersion is the run-report schema this build writes and the newest
// it reads.
const SchemaVersion = obs.SchemaVersion

// New returns a live Recorder.
func New(opts Options) *Recorder { return obs.New(opts) }

// ReadReport loads a run report written by Report.WriteFile, rejecting
// reports with a schema newer than this build understands.
func ReadReport(path string) (*Report, error) { return obs.ReadReport(path) }

// StartDebugServer serves net/http/pprof, expvar and the live run report
// on addr (see cmd/paerun -debug-addr).
var StartDebugServer = obs.StartDebugServer

// StartCPUProfile starts a CPU profile written to path; call the returned
// stop function to finish it.
var StartCPUProfile = obs.StartCPUProfile

// WriteHeapProfile writes a heap profile to path after a GC.
var WriteHeapProfile = obs.WriteHeapProfile
