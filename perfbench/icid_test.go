package main

import (
	"strings"
	"testing"
)

func TestGctraceLine(t *testing.T) {
	line := "gc 12 @0.345s 2%: 0.018+1.2+0.031 ms clock, 0.036+0.5/1.0/0+0.062 ms cpu, 24->25->3 MB, 48 MB goal, 0 MB stacks, 0 MB globals, 2 P"
	m := gctraceLine.FindStringSubmatch(line)
	if m == nil || m[1] != "0.018" || m[2] != "0.031" || m[3] != "24" {
		t.Fatalf("parsed %q", m)
	}
}

func TestMetricsInvariants(t *testing.T) {
	good := icidMetrics{
		Submitted: 10, Completed: 9, Errors: 1,
		Verified: 4, Violated: 4, Exhausted: 1, Cancelled: 1,
		Engines:  map[string]int64{"XICI": 6, "Fwd": 3},
		Attempts: 12, Escalations: 3,
		CacheLookups: 12, CacheMemHits: 2, CacheStoreHits: 1, CacheMisses: 9, CacheHits: 3,
	}
	if bad := good.invariants(); len(bad) != 0 {
		t.Fatalf("consistent metrics reported broken: %v", bad)
	}
	broken := good
	broken.CacheMisses = 8
	broken.Completed = 8
	bad := broken.invariants()
	if len(bad) != 4 {
		t.Fatalf("want 4 broken invariants, got %v", bad)
	}
	if !strings.Contains(strings.Join(bad, ";"), "cache_lookups") {
		t.Fatalf("cache accounting break not reported: %v", bad)
	}
}
