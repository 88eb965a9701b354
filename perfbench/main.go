// Command perfbench is the repository's benchmark. It runs one named
// workload against the system's layers — corpus, core (through
// pae.RunSource), bundle, promote, serve, fleet and extract — checks every
// output, and prints one JSON object as the last line of standard output:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. See README.md for the workloads and the metric table.
//
//	bash perfbench/run.sh --workload serve-detail --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --report --runs 10 --seconds 25
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// workDir is where runs keep corpora, bundles, checkpoints and traces,
// relative to the directory the benchmark runs from.
const workDir = ".bench_build"

// A run sets its workload up at least minSetups times and until
// setupBudget has passed, at most maxSetups times; setup_s is the median, so
// one slow set-up does not move it, and a short set-up is repeated enough
// for its median to settle.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 5 * time.Second
)

// spec is one named set of inputs and the operations run on them.
// BENCHMARK.json and README.md say why each workload is here.
type spec struct {
	name  string
	setup func(ctx context.Context, e *env) (instance, error)
}

// instance is a workload after set-up, ready to measure.
type instance interface {
	// measure runs operations until the deadline, always at least one, and
	// records them in m; tr is nil in untraced phases.
	measure(ctx context.Context, deadline time.Time, tr *tracer, m *measurement) error
	// quality is precision and coverage (percent) against planted truth,
	// from an untimed pass.
	quality() (precision, coverage float64)
	// fingerprint is the content address of the bundle the workload trained
	// or serves; it must repeat across runs of one commit and seed.
	fingerprint() string
	// layers fills the per-layer metrics from a traced phase.
	layers(tree *spanTree, m *measurement, out metricSet)
	close()
}

var workloads = []spec{
	{"bootstrap-detail", setupBootstrap},
	{"retrain-incremental", setupRetrain},
	{"serve-detail", setupServeDetail},
	{"serve-title", setupServeTitle},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// env is what every workload gets from the command line.
type env struct {
	seed    uint64
	seconds time.Duration
	dir     string // private scratch directory of this run
}

// scratch returns a fresh directory under the run's scratch directory.
func (e *env) scratch(name string) (string, error) {
	d := filepath.Join(e.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (comma list with --report)")
	seedV := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	report := fs.Bool("report", false, "steadiness report: run each workload --runs times and summarise")
	runs := fs.Int("runs", 10, "runs per workload for --report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *report {
		names := *name
		if names == "" {
			var all []string
			for _, w := range workloads {
				all = append(all, w.name)
			}
			names = strings.Join(all, ",")
		}
		return steadiness(ctx, strings.Split(names, ","), *seedV, *seconds, *runs)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	e := &env{
		seed:    *seedV,
		seconds: time.Duration(*seconds) * time.Second,
		dir:     filepath.Join(workDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
	}
	defer os.RemoveAll(e.dir)
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(ctx, w, e)
	} else {
		res, err = runUntraced(ctx, w, e)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setupTimed sets the workload up repeatedly, keeping the last instance,
// and returns the set-up times in seconds.
func setupTimed(ctx context.Context, w spec, e *env) (instance, []float64, error) {
	var times []float64
	var inst instance
	fp := ""
	total := time.Duration(0)
	for i := 0; i < maxSetups && (i < minSetups || total < setupBudget); i++ {
		if inst != nil {
			inst.close()
		}
		began := time.Now()
		var err error
		inst, err = w.setup(ctx, e)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		el := time.Since(began)
		total += el
		times = append(times, el.Seconds())
		// Set-up trains or loads the same bundle each time; a different
		// fingerprint means the system is not deterministic.
		if fp != "" && inst.fingerprint() != fp {
			inst.close()
			return nil, nil, fmt.Errorf("set-up %d built bundle %.12s, set-up 1 built %.12s", i+1, inst.fingerprint(), fp)
		}
		fp = inst.fingerprint()
	}
	return inst, times, nil
}

func runUntraced(ctx context.Context, w spec, e *env) (*result, error) {
	inst, setups, err := setupTimed(ctx, w, e)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	m := newMeasurement()
	if err := inst.measure(ctx, time.Now().Add(e.seconds), nil, m); err != nil {
		return nil, err
	}
	m.finish()
	printFingerprint(w, e, inst)
	fmt.Fprintf(os.Stderr, "set-ups %.4v s; %d jobs, first %.4v s\n", setups, len(m.jobs), m.jobs[:min(len(m.jobs), 5)])
	prec, cov := inst.quality()
	ms := metricSet{
		"setup_s":         median(setups),
		"job_s":           median(m.jobs),
		"pages_per_s":     median(m.rates),
		"cpu_ms_per_page": median(m.cpuPerPage),
		"peak_heap_mb":    m.peakHeap() / (1 << 20),
		"precision_pct":   prec,
		"coverage_pct":    cov,
	}
	if ms["latency_p50_ms"], err = percentile(m.lat, 0.5); err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	if ms["latency_p90_ms"], err = percentile(m.lat, 0.9); err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	out, err := ms.build(endToEnd)
	if err != nil {
		return nil, err
	}
	return &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: out}, nil
}

// runTraced measures the workload twice on one set-up: untraced for half
// the run, then traced for the other half. The per-layer metrics come from
// the traced half; the gap between the halves' job_s is the tracing
// overhead.
func runTraced(ctx context.Context, w spec, e *env) (*result, error) {
	inst, err := w.setup(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	half := e.seconds / 2
	plain := newMeasurement()
	if err := inst.measure(ctx, time.Now().Add(half), nil, plain); err != nil {
		return nil, err
	}
	plain.finish()
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, e.seed, time.Now().UnixNano()))
	traced := newMeasurement()
	if err := inst.measure(ctx, time.Now().Add(half), tr, traced); err != nil {
		return nil, err
	}
	traced.finish()
	printFingerprint(w, e, inst)
	path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", len(tr.snapshot()), path)

	ms := metricSet{}
	for _, d := range perLayer {
		ms[d.Name] = 0
	}
	inst.layers(newSpanTree(tr.snapshot()), traced, ms)
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	ms["failed_pct"] = 100 * float64(failed) / float64(max(attempted, 1))
	ms["trace.overhead_pct"] = 100 * (median(traced.jobs)/median(plain.jobs) - 1)
	ms["runtime.alloc_kb_per_page"] = float64(traced.alloc) / 1024 / float64(traced.pages)
	ms["runtime.gc_cycles"] = float64(traced.gcCycles)
	ms["runtime.gc_pause_ms"] = float64(traced.gcPause.Microseconds()) / 1e3
	out, err := ms.build(perLayer)
	if err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: out}, nil
}

// printFingerprint reports the bundle's content address on standard error,
// where the steadiness report compares it across runs of one seed.
func printFingerprint(w spec, e *env, inst instance) {
	fmt.Fprintf(os.Stderr, "fingerprint %s seed=%d %s\n", w.name, e.seed, inst.fingerprint())
}

// measurement collects one measured phase as per-job samples, so each
// end-to-end figure is a median over jobs and a short burst of machine
// noise moves one job, not the run. Set-up and untimed restores stay
// outside the jobs.
type measurement struct {
	jobs              []float64 // wall seconds per job
	rates             []float64 // pages per second per job
	cpuPerPage        []float64 // process CPU milliseconds per page, per job
	peaks             []float64 // largest live heap of each job, bytes
	lat               []float64 // milliseconds per page
	pages             int       // pages processed by completed jobs
	attempted, failed int

	began    time.Time
	cpuBegan time.Duration
	msBegan  runtime.MemStats

	heap     *heapWatcher
	gcCycles uint32        // collections during jobs
	gcPause  time.Duration // stop-the-world pauses during jobs
	alloc    uint64        // bytes allocated during jobs
}

func newMeasurement() *measurement {
	// Start every phase from a collected heap, so the garbage of set-up or
	// of an earlier phase does not decide when the first collection runs.
	runtime.GC()
	return &measurement{heap: watchHeap()}
}

// jobStart opens a job.
func (m *measurement) jobStart() {
	m.heap.take() // collections before the job are not its peak
	runtime.ReadMemStats(&m.msBegan)
	m.began = time.Now()
	m.cpuBegan = cpuTime()
}

// jobDone closes a job that processed pages. The job's heap peak is the
// largest live heap any collection during it marked; a job no collection
// ran in has none.
func (m *measurement) jobDone(pages int) {
	el := time.Since(m.began)
	cpu := cpuTime() - m.cpuBegan
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.jobs = append(m.jobs, el.Seconds())
	m.rates = append(m.rates, float64(pages)/el.Seconds())
	m.cpuPerPage = append(m.cpuPerPage, float64(cpu.Nanoseconds())/1e6/float64(pages))
	m.pages += pages
	m.gcCycles += ms.NumGC - m.msBegan.NumGC
	m.gcPause += time.Duration(ms.PauseTotalNs - m.msBegan.PauseTotalNs)
	m.alloc += ms.TotalAlloc - m.msBegan.TotalAlloc
	if p := m.heap.take(); p > 0 {
		m.peaks = append(m.peaks, float64(p))
	}
}

// peakHeap is the median of the jobs' peaks: one collection that happens to
// mark a transient buffer moves a single job's peak, not the median. When
// no collection ran during any job, it is the live heap the last one left.
func (m *measurement) peakHeap() float64 {
	if len(m.peaks) == 0 {
		return float64(liveHeap())
	}
	return median(m.peaks)
}

func (m *measurement) finish() { m.heap.stop() }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatcher tracks the largest live heap any garbage collection marked
// between two takes. A finalizer on a sentinel fires once per collection and
// re-arms itself, so every cycle is seen without polling.
type heapWatcher struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

type sentinel struct{ w *heapWatcher }

func watchHeap() *heapWatcher {
	w := &heapWatcher{}
	w.arm()
	return w
}

func (w *heapWatcher) arm() {
	runtime.SetFinalizer(&sentinel{w}, func(s *sentinel) {
		s.w.sample()
		if !s.w.stopped.Load() {
			s.w.arm()
		}
	})
}

// liveHeap is the heap the most recent collection marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func (w *heapWatcher) sample() {
	v := liveHeap()
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the largest live heap marked since the previous take, 0 when
// no collection ran in between.
func (w *heapWatcher) take() uint64 { return w.peak.Swap(0) }

func (w *heapWatcher) stop() {
	w.stopped.Store(true)
}
