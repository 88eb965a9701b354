package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// steadyFlag is the spread (interquartile range over median) beyond which
// the report flags a metric as too noisy to carry a claim.
const steadyFlag = 0.10

// childRun is one benchmark process the report started.
type childRun struct {
	seed        uint64
	res         result
	fingerprint string
	calBefore   float64 // calibration loop, ms
	calAfter    float64
	wall        float64 // whole process, s
	stealPct    float64 // machine CPU time stolen by the hypervisor during the run; -1 unknown
}

// steadiness runs each workload runs times untraced on consecutive seeds,
// then once traced on the first seed, and prints each end-to-end metric's
// median, quartiles, min/max and spread. A fixed CPU-only calibration loop
// is timed before and after every run and printed beside it — never used
// to scale a metric — so neighbour noise on the machine can be told apart
// from a change in the program.
func steadiness(ctx context.Context, names []string, seed0 uint64, seconds, runs int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	bounds := readBounds("BENCHMARK.json")
	ok := true
	traced := map[string]result{}
	medians := map[string]map[string]float64{} // workload → metric → median
	for _, name := range names {
		if _, found := findWorkload(name); !found {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
			return 2
		}
		fmt.Printf("== %s: %d runs of %ds, seeds %d..%d\n", name, runs, seconds, seed0, seed0+uint64(runs)-1)
		var done []childRun
		for i := 0; i < runs; i++ {
			c, err := runChild(ctx, exe, name, seed0+uint64(i), seconds, 0)
			if err != nil {
				fmt.Printf("  seed %d: FAILED: %v\n", seed0+uint64(i), err)
				ok = false
				continue
			}
			done = append(done, c)
			fmt.Printf("  seed %-4d calib %6.1f→%6.1f ms  steal %4.1f%%  wall %5.1fs  %s\n",
				c.seed, c.calBefore, c.calAfter, c.stealPct, c.wall, briefMetrics(c.res))
		}
		if len(done) < 2 {
			ok = false
			continue
		}
		medians[name] = map[string]float64{}
		fmt.Printf("  %-16s %12s %12s %12s %12s %12s %8s %8s\n", "metric", "min", "q1", "median", "q3", "max", "spread", "bound")
		for _, d := range endToEnd {
			var vs []float64
			for _, c := range done {
				vs = append(vs, c.res.Metrics[d.Name].Value)
			}
			q1, q2, q3, _ := quartiles(vs)
			spread := (q3 - q1) / q2
			flag := ""
			if spread > steadyFlag {
				flag = "  SPREAD>0.10"
			}
			if b, has := bounds[d.Name]; has && d.Name != "setup_s" && spread > b/3 {
				flag += "  SPREAD>BOUND/3"
			}
			fmt.Printf("  %-16s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %8s%s\n", d.Name,
				minOf(vs), q1, q2, q3, maxOf(vs), spread, boundText(bounds, d.Name), flag)
			medians[name][d.Name] = q2
		}

		// One traced run on the first seed: the per-layer figures, and a
		// second build of the same bundle to compare fingerprints with.
		c, err := runChild(ctx, exe, name, seed0, seconds, 1)
		if err != nil {
			fmt.Printf("  traced: FAILED: %v\n", err)
			ok = false
			continue
		}
		traced[name] = c.res
		if c.fingerprint != done[0].fingerprint && done[0].seed == seed0 {
			fmt.Printf("  FINGERPRINT MISMATCH seed %d: %.12s vs %.12s\n", seed0, c.fingerprint, done[0].fingerprint)
			ok = false
		}
		fmt.Printf("  traced (seed %d):\n", seed0)
		for _, d := range perLayer {
			fmt.Printf("    %-28s %14.6g %s\n", d.Name, c.res.Metrics[d.Name].Value, d.Unit)
		}
	}
	ok = premises(traced, medians) && ok
	if !ok {
		fmt.Println("steadiness report: FAILED")
		return 1
	}
	fmt.Println("steadiness report: ok")
	return 0
}

// premises checks, on the traced runs, that each workload stresses what it
// was chosen for.
func premises(traced map[string]result, medians map[string]map[string]float64) bool {
	ok := true
	check := func(cond bool, format string, args ...any) {
		status := "ok  "
		if !cond {
			status = "FAIL"
			ok = false
		}
		fmt.Printf("premise %s %s\n", status, fmt.Sprintf(format, args...))
	}
	v := func(w, name string) float64 { return traced[w].Metrics[name].Value }
	for w, r := range traced {
		check(r.Metrics["failed_pct"].Value == 0, "%s: failed_pct = %g", w, r.Metrics["failed_pct"].Value)
		if strings.HasPrefix(w, "serve-") {
			check(v(w, "client.conns_opened") == clients, "%s: client.conns_opened = %g for %d client(s)", w, v(w, "client.conns_opened"), clients)
		}
	}
	if _, has := traced["bootstrap-detail"]; has {
		train, job := v("bootstrap-detail", "core.train_s"), medians["bootstrap-detail"]["job_s"]
		check(train > job/2, "bootstrap-detail: core.train_s %.3fs is more than half of job_s %.3fs", train, job)
	}
	if _, has := traced["retrain-incremental"]; has {
		check(v("retrain-incremental", "core.shards_reused") >= 1, "retrain-incremental: core.shards_reused = %g", v("retrain-incremental", "core.shards_reused"))
	}
	_, d := traced["serve-detail"]
	_, t := traced["serve-title"]
	if d && t {
		sd := v("serve-detail", "extract.page_ms_p50") / medians["serve-detail"]["latency_p50_ms"]
		st := v("serve-title", "extract.page_ms_p50") / medians["serve-title"]["latency_p50_ms"]
		check(sd > st, "extract.page_ms_p50 share of latency_p50_ms: serve-detail %.2f > serve-title %.2f", sd, st)
	}
	return ok
}

// runChild runs one benchmark process and parses its result line.
func runChild(ctx context.Context, exe, name string, seed uint64, seconds, trace int) (childRun, error) {
	c := childRun{seed: seed, calBefore: calibrate(), stealPct: -1}
	steal0, total0, ok0 := cpuTicks()
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	// On interrupt the child gets SIGTERM, so it can remove its scratch
	// files, and is killed only if it has not exited 10 s later.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	began := time.Now()
	err := cmd.Run()
	c.wall = time.Since(began).Seconds()
	if steal1, total1, ok1 := cpuTicks(); ok0 && ok1 && total1 > total0 {
		c.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	c.calAfter = calibrate()
	sc := bufio.NewScanner(&stderr)
	var tail []string
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "fingerprint" {
			c.fingerprint = f[3]
		}
		tail = append(tail, line)
	}
	if len(tail) > 5 {
		tail = tail[len(tail)-5:]
	}
	if err != nil {
		return c, fmt.Errorf("%v: %s", err, strings.Join(tail, " | "))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.res); err != nil {
		return c, fmt.Errorf("result line: %w", err)
	}
	if !c.res.Correct || c.res.Failed > 0 {
		return c, fmt.Errorf("incorrect output: %d of %d operations failed", c.res.Failed, c.res.Attempted)
	}
	return c, nil
}

// calibrate times a fixed CPU-only loop, in ms: map updates and a sort
// over a fixed pseudo-random sequence, the kind of work the pipeline's
// feature tables and dedup passes do, so it slows when they would.
func calibrate() float64 {
	began := time.Now()
	x := uint64(88172645463325252)
	xs := make([]uint64, 1<<18)
	counts := make(map[uint64]int, 1<<14)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = x
		counts[x%(1<<14)]++
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	if len(counts) == 0 {
		return 0
	}
	return float64(time.Since(began).Nanoseconds()) / 1e6
}

// cpuTicks reads the machine-wide CPU time counters, for the share of time
// the hypervisor gave the machine's CPUs to someone else while a run went.
func cpuTicks() (steal, total uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

func briefMetrics(r result) string {
	var parts []string
	for _, d := range endToEnd {
		parts = append(parts, fmt.Sprintf("%s=%.4g", d.Name, r.Metrics[d.Name].Value))
	}
	return strings.Join(parts, " ")
}

// readBounds loads each end-to-end metric's bound from BENCHMARK.json when
// the file is present.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	raw, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var bj struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(raw, &bj) == nil {
		for _, m := range bj.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

func boundText(bounds map[string]float64, name string) string {
	if b, ok := bounds[name]; ok {
		return strconv.FormatFloat(b, 'g', 3, 64)
	}
	return "-"
}

func minOf(xs []float64) float64 { return sortedCopy(xs)[0] }
func maxOf(xs []float64) float64 { return sortedCopy(xs)[len(xs)-1] }
