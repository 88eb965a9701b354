package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/obs"
)

// HTTP exposition of the observability registry and the per-request record,
// shared by the serving core and the fleet router.

// MetricsHandler serves a Recorder's counters, gauges, histograms and
// rolling windows in the Prometheus text format — the GET /metrics scrape
// endpoint of paeserve and paerouter. A nil Recorder serves an empty body.
func MetricsHandler(rec *obs.Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", obs.ContentTypePrometheus)
		_ = rec.WritePrometheus(w)
	})
}

// TracesHandler serves a TraceLog snapshot — the N slowest and most recent
// errored request traces — as indented JSON at GET /debug/traces. Feed the
// body to `paeinspect trace` for a human-readable rendering. A nil TraceLog
// serves an empty snapshot.
func TracesHandler(tl *obs.TraceLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tl.Snapshot())
	})
}

// WriteJSON writes v as a compact JSON reply with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Telemetry writes the one record a tier keeps per /extract request: the
// request's trace (kept by the TraceLog if it ranks among the slowest or
// errored), the <tier>.request.seconds histogram and per-route rolling
// window, and one access-log event at Debug level through the Recorder.
// Every part is bounded: nothing grows with the number of requests served.
// A nil Recorder and a nil TraceLog are inert.
type Telemetry struct {
	rec       *obs.Recorder
	traces    *obs.TraceLog
	hist      string // <tier>.request.seconds
	event     string // <tier>.request
	winSingle *obs.Window
	winBatch  *obs.Window
}

// NewTelemetry registers tier's request metrics on rec.
func NewTelemetry(tier string, rec *obs.Recorder, traces *obs.TraceLog) *Telemetry {
	hist := tier + ".request.seconds"
	// Request latencies are ms-scale: override the train-time default
	// buckets before the first observation lands.
	rec.SetBuckets(hist, obs.LatencyBuckets())
	return &Telemetry{
		rec:       rec,
		traces:    traces,
		hist:      hist,
		event:     tier + ".request",
		winSingle: rec.Window(hist+`.window{route="single"}`, obs.WindowOptions{}),
		winBatch:  rec.Window(hist+`.window{route="batch"}`, obs.WindowOptions{}),
	}
}

// Latency returns the live per-route rolling-window quantiles, keyed by
// route ("single", "batch").
func (t *Telemetry) Latency() map[string]obs.WindowSnapshot {
	return map[string]obs.WindowSnapshot{
		"single": t.winSingle.Snapshot(),
		"batch":  t.winBatch.Snapshot(),
	}
}

// Exchange is one request's record while it is served. Seal it exactly
// once, through Finish, Fail or Shed.
type Exchange struct {
	t     *Telemetry
	w     http.ResponseWriter
	start time.Time
	// ID is the request's X-Pae-Trace ID.
	ID string
	// Trace collects the request's events; nil when capture is off.
	Trace *obs.Trace
	// Route is "single" or "batch" once the request has parsed that far.
	// A request sealed with an empty Route skips the latency histogram and
	// windows: it measured nothing.
	Route string
}

// Begin opens the record of one request: it adopts the caller's trace ID
// (the router's, usually) or mints one, and echoes it before any branch, so
// shed, timeout and malformed requests round-trip the ID too.
func (t *Telemetry) Begin(w http.ResponseWriter, r *http.Request) *Exchange {
	id := r.Header.Get(obs.TraceHeader)
	if id == "" {
		id = obs.NewTraceID()
	}
	w.Header().Set(obs.TraceHeader, id)
	x := &Exchange{t: t, w: w, start: time.Now(), ID: id}
	if t.traces != nil {
		x.Trace = obs.NewTrace(id)
	}
	return x
}

// Finish seals the record of a reply the caller has already written; a
// non-nil err marks it errored.
func (x *Exchange) Finish(status int, err error) {
	outcome := obs.TraceOK
	if err != nil {
		outcome = obs.TraceError
	}
	x.seal(status, outcome, err)
}

// Fail answers with the typed JSON error body and seals the record as
// errored.
func (x *Exchange) Fail(status int, msg string) {
	x.reply(status, ErrorResponse{Error: msg}, obs.TraceError)
}

// Shed answers an overload refusal: a 503 whose body is marked shed, sealed
// under the shed outcome so load generators and trace readers can tell it
// from a failure.
func (x *Exchange) Shed(msg string) {
	x.reply(http.StatusServiceUnavailable, ErrorResponse{Error: msg, Shed: true}, obs.TraceShed)
}

func (x *Exchange) reply(status int, er ErrorResponse, outcome string) {
	er.Trace = x.ID
	if status == http.StatusServiceUnavailable {
		// Overload and timeouts are transient: tell clients (and their
		// retry loops) when to come back, in both header and body.
		x.w.Header().Set("Retry-After", "1")
		er.RetryAfterSeconds = 1
	}
	WriteJSON(x.w, status, er)
	x.seal(status, outcome, errors.New(er.Error))
}

func (x *Exchange) seal(status int, outcome string, err error) {
	dur := time.Since(x.start)
	x.Trace.Finish(outcome, status, err)
	x.t.traces.Record(x.Trace)
	if x.Route != "" {
		x.t.rec.Observe(x.t.hist, dur.Seconds())
		win := x.t.winSingle
		if x.Route == "batch" {
			win = x.t.winBatch
		}
		win.Observe(dur.Seconds())
	}
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	x.t.rec.Debug(x.t.event, "trace", x.ID, "route", x.Route, "status", status, "dur", dur, "err", errMsg)
}
