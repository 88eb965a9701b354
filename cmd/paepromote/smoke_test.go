package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/fleet"
	"repro/internal/promote"
	"repro/internal/serve"
)

// TestLoopSmoke is the `make loop-smoke` end-to-end check of the production
// loop, through real binaries and sockets: paegen grows a corpus, paerun
// bootstraps the live bundle on it with a checkpoint, a two-backend fleet
// serves the result, and paepromote then (a) rejects a sabotaged candidate —
// the fleet keeps its fingerprint — and (b) after a paegen -append and an
// incremental paerun retrain (reusing checkpointed shards), promotes the
// clean candidate with zero failed requests while a closed-loop load runs
// through the hot swap. Gated behind PAE_LOOP_SMOKE=1 so it stays
// outside the tier-1 `go test ./...` run.
func TestLoopSmoke(t *testing.T) {
	if os.Getenv("PAE_LOOP_SMOKE") == "" {
		t.Skip("set PAE_LOOP_SMOKE=1 to run the loop smoke test (builds and spawns real binaries)")
	}

	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	ckptDir := filepath.Join(dir, "ckpt")
	livePaeb := filepath.Join(dir, "live.paeb")
	badPaeb := filepath.Join(dir, "bad.paeb")
	candPaeb := filepath.Join(dir, "cand.paeb")

	build := func(name, pkg string) string {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
		return bin
	}
	paegen := build("paegen", "./cmd/paegen")
	paerun := build("paerun", "./cmd/paerun")
	paeserve := build("paeserve", "./cmd/paeserve")
	paerouter := build("paerouter", "./cmd/paerouter")
	paepromote := build("paepromote", "./cmd/paepromote")

	// run executes a binary to completion and returns its combined output
	// and exit code.
	run := func(bin string, args ...string) (string, int) {
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		code := 0
		if err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
			}
			code = ee.ExitCode()
		}
		return string(out), code
	}
	mustRun := func(bin string, args ...string) string {
		out, code := run(bin, args...)
		if code != 0 {
			t.Fatalf("%s %v: exit %d\n%s", filepath.Base(bin), args, code, out)
		}
		return out
	}

	// Grow a corpus and bootstrap the live model on it (checkpointed, so
	// the later retrain can reuse per-shard work).
	mustRun(paegen, "-items", "60", "-shard-size", "20", "-seed", "9", "-out", corpusDir)
	mustRun(paerun, "-corpus", corpusDir, "-checkpoint", ckptDir, "-iterations", "2",
		"-out", filepath.Join(dir, "live.jsonl"), "-bundle", livePaeb)

	// A two-backend fleet serving the live bundle behind the router.
	freeAddr := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	start := func(bin string, args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", bin, err)
		}
		t.Cleanup(func() {
			if cmd.Process != nil {
				_ = cmd.Process.Kill()
				_, _ = cmd.Process.Wait()
			}
		})
		return cmd
	}
	client := &http.Client{Timeout: 10 * time.Second}
	waitHealthy := func(addr string) {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := client.Get("http://" + addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("%s never became healthy", addr)
	}

	backendAddrs := []string{freeAddr(), freeAddr()}
	for _, a := range backendAddrs {
		start(paeserve, "-bundle", livePaeb, "-addr", a)
	}
	for _, a := range backendAddrs {
		waitHealthy(a)
	}
	routerAddr := freeAddr()
	start(paerouter,
		"-backends", fmt.Sprintf("http://%s,http://%s", backendAddrs[0], backendAddrs[1]),
		"-addr", routerAddr,
		"-probe-interval", "50ms",
		"-retry-backoff", "5ms",
	)
	waitHealthy(routerAddr)
	routerURL := "http://" + routerAddr

	liveInfo, err := bundle.Stat(livePaeb)
	if err != nil {
		t.Fatal(err)
	}
	liveFP := liveInfo.Fingerprint

	fleetFingerprints := func() map[string]string {
		resp, err := client.Get(routerURL + "/fleet")
		if err != nil {
			t.Fatalf("GET /fleet: %v", err)
		}
		defer resp.Body.Close()
		var st fleet.FleetStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode /fleet: %v", err)
		}
		fps := map[string]string{}
		for _, b := range st.Backends {
			fps[b.URL] = b.Fingerprint
		}
		return fps
	}

	// A closed-loop load runs through everything below — both the rejected
	// promotion and the hot swap — and must never see a failed request.
	mustRun(paegen, "-items", "1", "-seed", "901", "-out", filepath.Join(dir, "probe"))
	probeHTML := readOnePage(t, filepath.Join(dir, "probe"))
	body, err := json.Marshal(serve.Request{ID: "loop-smoke", HTML: probeHTML})
	if err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int64
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				resp, err := client.Post(routerURL+"/extract", "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					continue
				}
				rbody, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var out serve.Response
				if resp.StatusCode != http.StatusOK || json.Unmarshal(rbody, &out) != nil {
					failures.Add(1)
					t.Errorf("load request failed: status %d: %s", resp.StatusCode, rbody)
				}
			}
		}()
	}

	// Act 1 — a regressed candidate must be rejected and the fleet left
	// untouched. The sabotage is an absurd confidence floor: a well-formed
	// bundle whose extraction coverage collapses.
	sabotageBundle(t, livePaeb, badPaeb)
	out, code := run(paepromote, "-router", routerURL, "-corpus", corpusDir,
		"-live", livePaeb, "-candidate", badPaeb)
	if code != 1 {
		t.Fatalf("sabotaged candidate: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "REJECT") {
		t.Fatalf("sabotaged candidate not rejected:\n%s", out)
	}
	for u, fp := range fleetFingerprints() {
		if fp != liveFP {
			t.Fatalf("rejected promotion changed backend %s to fingerprint %s", u, fp)
		}
	}
	t.Log("regressed candidate rejected; fleet kept the live fingerprint")

	// Act 2 — grow the corpus, incrementally retrain from the checkpoint,
	// and promote the clean candidate through the live fleet. The retrain
	// runs a shorter schedule than the bootstrap (1 iteration against the
	// checkpoint's 2): warm starts consume the checkpoint's triples as
	// labels, so a cheap refresh schedule is the incremental path's whole
	// economy, and this exercises it through the real binaries.
	mustRun(paegen, "-append", "-items", "20", "-seed", "77", "-out", corpusDir)
	out = mustRun(paerun, "-corpus", corpusDir, "-checkpoint", ckptDir, "-iterations", "1", "-incremental",
		"-out", filepath.Join(dir, "cand.jsonl"), "-bundle", candPaeb)
	var reused, recomputed int
	for _, line := range strings.Split(out, "\n") {
		if _, err := fmt.Sscanf(line, "incremental re-bootstrap: reused %d checkpointed shards, recomputed %d",
			&reused, &recomputed); err == nil {
			break
		}
	}
	if reused < 1 {
		t.Fatalf("incremental retrain reused %d shards, want >= 1\n%s", reused, out)
	}
	reportPath := filepath.Join(dir, "verdict.json")
	// The 80-page corpus makes per-attribute metrics coarse (one page is
	// 1.25 coverage points), so the gate gets a noise-sized tolerance; the
	// sabotaged bundle above fails even the widest sane gate, this clean
	// retrain passes it.
	out = mustRun(paepromote, "-router", routerURL, "-corpus", corpusDir,
		"-max-precision-drop", "8", "-max-coverage-drop", "10",
		"-live", livePaeb, "-candidate", candPaeb, "-json", reportPath)
	if !strings.Contains(out, "PROMOTE") || !strings.Contains(out, "promoted: fleet converged") {
		t.Fatalf("clean candidate was not promoted:\n%s", out)
	}

	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep promote.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("verdict.json: %v", err)
	}
	if !rep.Promote || rep.CandidateFingerprint == liveFP {
		t.Fatalf("unexpected verdict: %+v", rep)
	}
	candInfo, err := bundle.Stat(candPaeb)
	if err != nil {
		t.Fatal(err)
	}
	for u, fp := range fleetFingerprints() {
		if fp != candInfo.Fingerprint {
			t.Fatalf("backend %s serves fingerprint %s after promotion, want %s", u, fp, candInfo.Fingerprint)
		}
	}

	close(stopLoad)
	wg.Wait()
	if got := failures.Load(); got != 0 {
		t.Fatalf("%d failed requests during the promotion cycle", got)
	}
	t.Logf("loop smoke OK: reject kept %0.12s, promote converged on %0.12s, %d shards reused, zero failed requests",
		liveFP, candInfo.Fingerprint, reused)
}

// readOnePage pulls the first page body out of a generated corpus directory.
func readOnePage(t *testing.T, dir string) string {
	t.Helper()
	shard, err := os.ReadFile(filepath.Join(dir, "shards", "shard-0000.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	line := shard
	if i := bytes.IndexByte(shard, '\n'); i >= 0 {
		line = shard[:i]
	}
	var page struct {
		HTML string `json:"html"`
	}
	if err := json.Unmarshal(line, &page); err != nil {
		t.Fatal(err)
	}
	return page.HTML
}

// sabotageBundle clones a bundle with an extraction-killing confidence
// floor; the artifact stays structurally valid and loadable.
func sabotageBundle(t *testing.T, from, to string) {
	t.Helper()
	b, err := bundle.LoadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	bad := &bundle.Bundle{Manifest: b.Manifest, Model: b.Model}
	bad.Manifest.MinConfidence = 0.999999
	if err := bad.SaveFile(to); err != nil {
		t.Fatal(err)
	}
}
