package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text exposition (the v0.0.4 text format) from a Recorder's
// shared registry — counters, gauges, run-lifetime histograms and rolling
// windows, all pure stdlib. The HTTP wrapping lives with the callers
// (internal/serve, internal/fleet, the debug endpoint).

// ContentTypePrometheus is the Content-Type of the exposition body.
const ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"

// promName sanitises a metric name for exposition: dots (and anything else
// outside [a-zA-Z0-9_:]) become underscores. A `{label="value"}` suffix is
// split off and passed through verbatim, so callers can register
// per-route/per-backend series with real Prometheus labels:
//
//	fleet.request.seconds{route="single"} → fleet_request_seconds{route="single"}
func promName(name string) (metric, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name, labels = name[:i], name[i:]
	}
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String(), labels
}

// joinLabels merges a passthrough label block with one extra label (used for
// histogram le labels and window quantile labels).
func joinLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus writes the Recorder's counters, gauges, histograms and
// rolling windows in the Prometheus text format, deterministically ordered.
// Counters expose as counter, gauges as gauge, histograms as histogram
// (cumulative le buckets plus _sum/_count), and windows as summary with
// quantile labels over the live window. A nil Recorder writes nothing.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Snapshot under the lock, format outside it: exposition must never
	// stall the serving path.
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]HistogramReport, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h.report()
	}
	windows := make(map[string]*Window, len(r.windows))
	for k, win := range r.windows {
		windows[k] = win
	}
	r.mu.Unlock()

	wins := make(map[string]WindowSnapshot, len(windows))
	for k, win := range windows {
		wins[k] = win.Snapshot()
	}

	var b strings.Builder
	typed := map[string]bool{} // first series of a metric name owns the TYPE line
	emitType := func(metric, kind string) {
		if !typed[metric] {
			typed[metric] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", metric, kind)
		}
	}
	for _, name := range sortedKeys(counters) {
		metric, labels := promName(name)
		emitType(metric, "counter")
		fmt.Fprintf(&b, "%s%s %d\n", metric, labels, counters[name])
	}
	for _, name := range sortedKeys(gauges) {
		metric, labels := promName(name)
		emitType(metric, "gauge")
		fmt.Fprintf(&b, "%s%s %v\n", metric, labels, gauges[name])
	}
	for _, name := range sortedKeys(hists) {
		metric, labels := promName(name)
		h := hists[name]
		emitType(metric, "histogram")
		var cum int64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%v", h.Bounds[i])
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", metric, joinLabels(labels, `le="`+le+`"`), cum)
		}
		fmt.Fprintf(&b, "%s_sum%s %v\n", metric, labels, h.Sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", metric, labels, h.Count)
	}
	for _, name := range sortedKeys(wins) {
		metric, labels := promName(name)
		s := wins[name]
		emitType(metric, "summary")
		for _, q := range [...]struct {
			label string
			v     float64
		}{{"0.5", s.P50}, {"0.99", s.P99}, {"0.999", s.P999}} {
			fmt.Fprintf(&b, "%s%s %v\n", metric, joinLabels(labels, `quantile="`+q.label+`"`), q.v)
		}
		fmt.Fprintf(&b, "%s_sum%s %v\n", metric, labels, s.Sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", metric, labels, s.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
