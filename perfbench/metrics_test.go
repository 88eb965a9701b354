package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"job_s", "core.train_s", "client.latency_p99_ms", "a", "9-x.y_z"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "p99%", "latency/ms", "é", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		seen := map[string]bool{}
		for _, d := range defs {
			if !metricName.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("bad or duplicate metric %q", d.Name)
			}
			seen[d.Name] = true
		}
	}
}

func TestMetricSetBuild(t *testing.T) {
	defs := []metricDef{{Name: "a_ms", Unit: "ms"}, {Name: "b", Unit: "count"}}
	out, err := metricSet{"a_ms": 1.5, "b": 0}.build(defs)
	if err != nil {
		t.Fatal(err)
	}
	if out["a_ms"] != (metricValue{1.5, "ms"}) || out["b"] != (metricValue{0, "count"}) {
		t.Errorf("build = %v", out)
	}
	for name, ms := range map[string]metricSet{
		"missing":   {"a_ms": 1},
		"extra":     {"a_ms": 1, "b": 2, "c": 3},
		"not a num": {"a_ms": 1, "b": nan()},
	} {
		if _, err := ms.build(defs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := (metricSet{"bad name": 1}).build([]metricDef{{Name: "bad name"}}); err == nil {
		t.Error("invalid declared name accepted")
	}
}

func nan() float64 { z := 0.0; return z / z }

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the metric tables in
// this package in step.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json may name fewer workloads than the benchmark has: the
	// steadiness report also runs serve-title, for its premise check.
	for i, w := range bj.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %d %q is not implemented", i, w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, benchmark has %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s/%s/%s, benchmark has %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
}
