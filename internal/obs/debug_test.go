package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestDebugServer(t *testing.T) {
	r := New(Options{NoRuntimeStats: true})
	r.Add("seed.pairs", 7)
	r.Set("attributes.seed", 3)
	run := r.StartRun("run")
	run.End(nil)

	closer, addr, err := StartDebugServer("127.0.0.1:0", r)
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer closer.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// /debug/vars carries the "pae" expvar with the recorder's metrics
	// (expvar.Func marshals compactly, hence no space after the colon).
	vars := get("/debug/vars")
	if !strings.Contains(vars, `"seed.pairs":7`) {
		t.Fatalf("/debug/vars missing pae counters:\n%s", vars)
	}

	// /debug/obs serves the full live report.
	var rep Report
	if err := json.Unmarshal([]byte(get("/debug/obs")), &rep); err != nil {
		t.Fatalf("/debug/obs not a report: %v", err)
	}
	if rep.Schema != SchemaVersion || rep.Span == nil || rep.Span.Name != "run" {
		t.Fatalf("/debug/obs report = %+v", rep)
	}

	// /debug/pprof/ index responds.
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%.200s", idx)
	}

	// A later StartDebugServer rebinds the expvar to the new recorder
	// (expvar publication is global and once-only).
	r2 := New(Options{NoRuntimeStats: true})
	r2.Add("seed.pairs", 99)
	closer2, addr2, err := StartDebugServer("127.0.0.1:0", r2)
	if err != nil {
		t.Fatal(err)
	}
	defer closer2.Close()
	resp, err := http.Get("http://" + addr2 + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"seed.pairs":99`) {
		t.Fatalf("expvar still bound to old recorder:\n%s", body)
	}
}
