package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef declares one reported metric. The same names, units and
// directions are in BENCHMARK.json; TestBenchmarkJSONAgrees keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are what a user of the system sees, printed by untraced runs.
// Every workload reports all of them; README.md says what each one means
// on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"job_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"pages_per_s", "1/s", "higher"},
	{"cpu_ms_per_page", "ms", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"precision_pct", "%", "higher"},
	{"coverage_pct", "%", "higher"},
}

// perLayer are the single-layer numbers a traced run prints. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"corpus.read_mb", "MB", "lower"},
	{"corpus.append_ms", "ms", "lower"},
	{"core.seed_s", "s", "lower"},
	{"core.prep_s", "s", "lower"},
	{"core.train_s", "s", "lower"},
	{"core.tag_s", "s", "lower"},
	{"core.veto_s", "s", "lower"},
	{"core.semantic_s", "s", "lower"},
	{"core.relabel_s", "s", "lower"},
	{"core.checkpoint_s", "s", "lower"},
	{"core.shards_reused", "count", "higher"},
	{"core.shards_recomputed", "count", "lower"},
	{"core.shardcache_hit_pct", "%", "higher"},
	{"crf.objective_evals", "count", "lower"},
	{"crf.optimizer_iterations", "count", "lower"},
	{"crf.ms_per_eval", "ms", "lower"},
	{"crf.features", "count", "lower"},
	{"cleaning.veto_killed", "count", "lower"},
	{"cleaning.semantic_killed", "count", "lower"},
	{"bundle.save_ms", "ms", "lower"},
	{"bundle.bytes", "bytes", "lower"},
	{"bundle.load_ms", "ms", "lower"},
	{"promote.gate_ms", "ms", "lower"},
	{"extract.page_ms_p50", "ms", "lower"},
	{"extract.split_ms_per_page", "ms", "lower"},
	{"extract.tag_ms_per_page", "ms", "lower"},
	{"extract.veto_ms_per_page", "ms", "lower"},
	{"extract.sentences_per_page", "count", "higher"},
	{"extract.tokens_per_page", "count", "higher"},
	{"extract.triples_per_page", "count", "higher"},
	{"serve.handler_ms_p50", "ms", "lower"},
	{"serve.overhead_ms_p50", "ms", "lower"},
	{"serve.ready_ms", "ms", "lower"},
	{"fleet.overhead_ms_p50", "ms", "lower"},
	{"fleet.retries", "count", "lower"},
	{"fleet.hedges", "count", "lower"},
	{"fleet.shed", "count", "lower"},
	{"fleet.backend_conns_opened", "count", "lower"},
	{"client.requests", "count", "higher"},
	{"client.failed", "count", "lower"},
	{"client.conns_opened", "count", "lower"},
	{"client.latency_p99_ms", "ms", "lower"},
	{"runtime.alloc_kb_per_page", "KB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"failed_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet builds a result's metrics, checking each name and value.
type metricSet map[string]float64

// build checks that the set holds exactly the declared metrics, each with a
// valid name and a finite value, and attaches the declared units.
func (m metricSet) build(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			return nil, fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.Name)
		}
		if _, dup := out[d.Name]; dup {
			return nil, fmt.Errorf("metric %q declared twice", d.Name)
		}
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(m) != len(out) {
		var extra []string
		for name := range m {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}
