package main

import (
	"math"
	"testing"
	"time"
)

// calm leaves out the intervals with too much steal, whatever they
// cost, and counts every other interval, however costly.
func TestCalmLeavesOutStolenIntervals(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &sampler{
		at: []time.Time{at(0), at(250), at(500), at(750)},
		// cumulative CPU ms: 10, then 90 (stolen), then 30 (costly but calm)
		v: []float64{0, 10, 100, 130},
		// 50 ticks per interval: 0, 10 (20%) and 2 (4%) stolen
		host: []stealMeter{{0, 0}, {50, 0}, {100, 10}, {150, 12}},
	}
	done := []time.Time{at(100), at(200), at(300), at(400), at(600), at(700)}
	perJob, share := s.calm(done)
	if want := (10.0 + 30) / 4; math.Abs(perJob-want) > 1e-12 || math.Abs(share-4.0/6) > 1e-12 {
		t.Fatalf("calm = %v over %v of the jobs, want %v over 2/3", perJob, share, want)
	}

	// When the calm intervals hold under half the jobs, the whole
	// window counts.
	s.host = []stealMeter{{0, 0}, {50, 10}, {100, 20}, {150, 20}}
	done = []time.Time{at(100), at(300), at(400), at(600)}
	if perJob, share := s.calm(done); perJob != 130.0/4 || share != 0.25 {
		t.Fatalf("calm = %v over %v of the jobs, want the whole window's %v", perJob, share, 130.0/4)
	}
}

func TestStealShare(t *testing.T) {
	if got := (stealMeter{100, 5}).pctTo(stealMeter{150, 10}); got != 10 {
		t.Errorf("5 of 50 ticks stolen = %v%%, want 10%%", got)
	}
	if got := (stealMeter{100, 5}).pctTo(stealMeter{100, 5}); got != 0 {
		t.Errorf("no ticks elapsed = %v%%, want 0", got)
	}
}
