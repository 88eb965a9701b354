// The live debug endpoint: net/http/pprof profiles, expvar, and the current
// run report, served from -debug-addr on cmd/paerun and cmd/paebench.

package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// debugRec is the Recorder the expvar "pae" variable reads. expvar
// publication is global and once-only, so the variable indirects through
// this pointer instead of capturing one Recorder.
var (
	debugMu  sync.Mutex
	debugRec *Recorder
)

var publishOnce sync.Once

// StartDebugServer serves /debug/pprof/*, /debug/vars (expvar, including a
// "pae" variable with the recorder's counters and gauges), and /debug/obs
// (the full live run report as JSON) on addr. It returns the server (an
// io.Closer) and the bound address (useful with a ":0" addr). The server
// runs until Close.
func StartDebugServer(addr string, rec *Recorder) (io.Closer, string, error) {
	debugMu.Lock()
	debugRec = rec
	debugMu.Unlock()
	publishOnce.Do(func() {
		expvar.Publish("pae", expvar.Func(func() any {
			debugMu.Lock()
			r := debugRec
			debugMu.Unlock()
			if r == nil {
				return nil
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			counters := make(map[string]int64, len(r.counters))
			for k, v := range r.counters {
				counters[k] = v
			}
			gauges := make(map[string]float64, len(r.gauges))
			for k, v := range r.gauges {
				gauges[k] = v
			}
			return map[string]any{"counters": counters, "gauges": gauges}
		}))
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rec.Snapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		// Prometheus text exposition of the live registry, next to pprof —
		// so a scraper can follow a bootstrap the same way it follows the
		// serving fleet.
		w.Header().Set("Content-Type", ContentTypePrometheus)
		_ = rec.WritePrometheus(w)
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
