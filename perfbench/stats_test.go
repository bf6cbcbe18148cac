package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	// A 2x change in the smallest value moves it as much as a 2x
	// change in the largest.
	a := geomean([]float64{2, 100})
	b := geomean([]float64{1, 200})
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("geomean weights values unevenly: %v vs %v", a, b)
	}
	if !math.IsNaN(geomean([]float64{1, 0})) || !math.IsNaN(geomean(nil)) {
		t.Error("geomean of a non-positive or empty sample is not NaN")
	}
}

func TestTailSampleCount(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {100, 0.9, 10}, {33, 0.99, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := summarize(xs, 0.99)
	if s.N != 1000 || s.P50 != 499.5 || strings.Contains(s.String(), "fewer") {
		t.Errorf("summarize(0..999) = %+v %q", s, s)
	}
	if short := summarize(xs[:50], 0.99); !strings.Contains(short.String(), "fewer than 10") {
		t.Errorf("a 50-sample p99 is not flagged: %q", short)
	}
}
