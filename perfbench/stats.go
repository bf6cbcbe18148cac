package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the "type 7" rule of R and
// NumPy). xs need not be sorted; it is not modified. An empty sample
// yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of a sample of positive values, so
// that a 2x change in a 10 ms cell moves it as much as a 2x change in a
// 2 s cell. Non-positive values make it NaN.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// beyond is the number of samples of an n-sample distribution that lie
// above its q-quantile. A high percentile is only worth reporting when
// at least ten samples lie beyond it.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9)) // 100*(1-0.9) is 9.999...
}

// timing summarizes one latency sample: median, a high percentile and
// the sample count, in the sample's unit.
type timing struct {
	P50, High float64
	Q         float64 // the high percentile's quantile, e.g. 0.99
	N         int
}

func summarize(xs []float64, q float64) timing {
	return timing{P50: median(xs), High: quantile(xs, q), Q: q, N: len(xs)}
}

// String renders "p50=1.234 p99=5.678 n=1200", flagging a high
// percentile with fewer than ten samples beyond it.
func (t timing) String() string {
	s := fmt.Sprintf("p50=%.4g p%g=%.4g n=%d", t.P50, t.Q*100, t.High, t.N)
	if beyond(t.N, t.Q) < 10 {
		s += " (tail has fewer than 10 samples)"
	}
	return s
}

// metricName is the shape BENCHMARK.json allows for metric names.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
