package main

import (
	"math"
	"testing"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 0, false}, // rank 10 leaves 9 beyond
		{20, 0.5, 10, true}, // rank 10 leaves 10 beyond
		{99, 0.9, 0, false},
		{100, 0.9, 90, true},
		{999, 0.99, 0, false},
		{1000, 0.99, 990, true},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if c.ok != (err == nil) {
			t.Fatalf("p%g of %d: err = %v, want ok=%v", 100*c.q, c.n, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Errorf("p%g of %d = %g, want %g", 100*c.q, c.n, got, c.want)
		}
	}
	if _, err := percentile(seq(100), 1); err == nil {
		t.Error("p100 accepted")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{0.041, 0.053, 0.047, 0.044, 0.050, 0.049, 0.046, 0.052, 0.043, 0.048, 0.051}, 0.044, 0.048, 0.051},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range [][2]float64{{q1, c.q1}, {q2, c.q2}, {q3, c.q3}} {
			if math.Abs(p[0]-p[1]) > 1e-12 {
				t.Errorf("quartiles(%v) q%d = %g, want %g", c.xs, i+1, p[0], p[1])
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}
