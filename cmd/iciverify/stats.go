package main

import (
	"fmt"
	"strings"

	"repro/internal/bdd"
	"repro/internal/verify"
)

// printStats renders the -stats human summary: the per-phase wall-time
// breakdown, the exact termination test's counters, the greedy
// evaluation's counters, the BDD manager's peak size and computed-cache
// sizing, and the iterate size trajectory.
func printStats(res verify.Result, bs bdd.Stats) {
	fmt.Printf("phase times:   %s (attributed %.3fs of %.3fs)\n",
		res.PhaseDurations, res.PhaseDurations.Total().Seconds(), res.Elapsed.Seconds())
	ts := res.Term
	fmt.Printf("termination:   %d taut calls (steps1-2 %d, step3 %d, single %d), %d shannon splits, max depth %d\n",
		ts.TautCalls, ts.StepResolved[0], ts.StepResolved[1], ts.StepResolved[2],
		ts.ShannonSplits, ts.MaxSplitDepth)
	es := res.Eval
	fmt.Printf("evaluation:    %d pairs scored, %d merges, %d budget overflows, %d rounds\n",
		es.PairsScored, es.MergesApplied, es.BudgetOverflow, es.Rounds)
	hitRate := 0.0
	if bs.CacheLookups > 0 {
		hitRate = 100 * float64(bs.CacheHits) / float64(bs.CacheLookups)
	}
	fmt.Printf("bdd:           %d peak nodes, cache %d entries after %d resizes, hit rate %.1f%% of %d lookups\n",
		bs.PeakNodes, bs.CacheEntries, bs.CacheResizes, hitRate, bs.CacheLookups)
	if len(res.SizeTrajectory) > 0 {
		parts := make([]string, len(res.SizeTrajectory))
		for i, s := range res.SizeTrajectory {
			parts[i] = fmt.Sprint(s)
		}
		fmt.Printf("iterate sizes: %s\n", strings.Join(parts, " "))
	}
}
