package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/bdd"
	"repro/internal/bench"
	"repro/internal/verify"
)

// cellExpect is one selected paper cell and the outcome, iteration
// count and peak iterate size recorded from the code this benchmark
// was written against. They agree with EXPERIMENTS.md, the paper's
// correctness anchor; a change that moves any of them fails the run.
type cellExpect struct {
	table, group, label string
	outcome             verify.Outcome
	iterations, peak    int
}

// tableCells is the paper-tables cell list: full-size cells of
// bench.Table1/2/3(false) that reach a verdict. Left out so that three
// passes fit in a 20 s window on a 2-CPU host: the exhausted cells
// (they time the budget wall, not the program), the filter depth=16
// groups (18-23 s), the XICI* pipeline cells at registers=2 bits=3 and
// registers=4 bits=1 (4-14 s; XICI* at registers=2 bits=2 keeps the
// termination-heavy case), and the 1-3 s image-bound cells FIFO
// depth=10 Fwd, filter depth=4 Fwd, network processors=7 FD and
// pipeline registers=2 bits=2 Bkwd/ICI/XICI (network processors=4 Fwd,
// 1.4M live nodes, keeps the image-bound, large-manager case).
var tableCells = []cellExpect{
	{"T1", "8-Bit Wide Typed FIFO Buffer depth=5", "Fwd", verify.Verified, 6, 543},
	{"T1", "8-Bit Wide Typed FIFO Buffer depth=5", "Bkwd", verify.Verified, 1, 543},
	{"T1", "8-Bit Wide Typed FIFO Buffer depth=5", "ICI", verify.Verified, 1, 41},
	{"T1", "8-Bit Wide Typed FIFO Buffer depth=5", "XICI", verify.Verified, 1, 41},
	{"T1", "8-Bit Wide Typed FIFO Buffer depth=10", "Bkwd", verify.Verified, 1, 32767},
	{"T1", "8-Bit Wide Typed FIFO Buffer depth=10", "ICI", verify.Verified, 1, 81},
	{"T1", "8-Bit Wide Typed FIFO Buffer depth=10", "XICI", verify.Verified, 1, 81},
	{"T1", "Processors Sending Messages Through Network processors=4", "Fwd", verify.Verified, 13, 1699},
	{"T1", "Processors Sending Messages Through Network processors=4", "Bkwd", verify.Verified, 1, 937},
	{"T1", "Processors Sending Messages Through Network processors=4", "FD", verify.Verified, 13, 93},
	{"T1", "Processors Sending Messages Through Network processors=4", "ICI", verify.Verified, 1, 237},
	{"T1", "Processors Sending Messages Through Network processors=4", "XICI", verify.Verified, 1, 237},
	{"T1", "Processors Sending Messages Through Network processors=7", "ICI", verify.Verified, 1, 1072},
	{"T1", "Processors Sending Messages Through Network processors=7", "XICI", verify.Verified, 1, 1072},
	{"T1", "8-Bit Wide Moving Average Filter depth=4", "Bkwd", verify.Verified, 2, 490},
	{"T1", "8-Bit Wide Moving Average Filter depth=4", "ICI", verify.Verified, 1, 146},
	{"T1", "8-Bit Wide Moving Average Filter depth=4", "XICI", verify.Verified, 1, 146},
	{"T1", "8-Bit Wide Moving Average Filter depth=8", "ICI", verify.Verified, 1, 638},
	{"T1", "8-Bit Wide Moving Average Filter depth=8", "XICI", verify.Verified, 1, 638},
	{"T2", "8-Bit Wide Moving Average Filter depth=4 (no assisting invariants)", "Bkwd", verify.Verified, 2, 490},
	{"T2", "8-Bit Wide Moving Average Filter depth=4 (no assisting invariants)", "ICI", verify.Verified, 2, 490},
	{"T2", "8-Bit Wide Moving Average Filter depth=4 (no assisting invariants)", "XICI", verify.Verified, 2, 146},
	{"T2", "8-Bit Wide Moving Average Filter depth=8 (no assisting invariants)", "XICI", verify.Verified, 3, 638},
	{"T3", "Pipelined Processor registers=2, datapath bits=1", "Fwd", verify.Verified, 5, 117},
	{"T3", "Pipelined Processor registers=2, datapath bits=1", "Bkwd", verify.Verified, 3, 494},
	{"T3", "Pipelined Processor registers=2, datapath bits=1", "ICI", verify.Verified, 3, 494},
	{"T3", "Pipelined Processor registers=2, datapath bits=1", "XICI", verify.Verified, 3, 494},
	{"T3", "Pipelined Processor registers=2, datapath bits=1", "XICI*", verify.Verified, 3, 728},
	{"T3", "Pipelined Processor registers=2, datapath bits=2", "Fwd", verify.Verified, 5, 323},
	{"T3", "Pipelined Processor registers=2, datapath bits=2", "XICI*", verify.Verified, 3, 7008},
	{"T3", "Pipelined Processor registers=2, datapath bits=3", "Fwd", verify.Verified, 5, 710},
	{"T3", "Pipelined Processor registers=4, datapath bits=1", "Fwd", verify.Verified, 7, 406},
}

// paperCell is a selected cell resolved against the table definitions.
type paperCell struct {
	cellExpect
	cell   bench.Cell
	budget bench.Budget
}

func (c paperCell) key() string { return c.table + " | " + c.group + " | " + c.label }

// selectCells resolves tableCells against bench.Table1/2/3(false), the
// definitions icibench runs, in list order. A listed cell the tables no
// longer define is an error.
func selectCells() ([]paperCell, error) {
	t1, b1 := bench.Table1(false)
	t2, b2 := bench.Table2(false)
	t3, b3 := bench.Table3(false, false)
	defs := map[string]paperCell{}
	for _, tb := range []struct {
		tag    string
		t      bench.Table
		budget bench.Budget
	}{{"T1", t1, b1}, {"T2", t2, b2}, {"T3", t3, b3}} {
		for _, c := range tb.t.Cells {
			pc := paperCell{cellExpect: cellExpect{table: tb.tag, group: c.Group, label: c.RowLabel()}, cell: c, budget: tb.budget}
			defs[pc.key()] = pc
		}
	}
	out := make([]paperCell, 0, len(tableCells))
	for _, want := range tableCells {
		pc, ok := defs[paperCell{cellExpect: want}.key()]
		if !ok {
			return nil, fmt.Errorf("paper cell %q is no longer defined", paperCell{cellExpect: want}.key())
		}
		pc.cellExpect = want
		out = append(out, pc)
	}
	return out, nil
}

// tablesSetup resolves the cell list and builds every cell's problem
// once on a fresh manager, so a cell whose model no longer builds fails
// before any timing.
func tablesSetup() ([]paperCell, error) {
	cells, err := selectCells()
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		m := bdd.NewWithSize(1<<10, 10)
		if err := bdd.Guard(func() { c.cell.Build(m) }); err != nil {
			return nil, fmt.Errorf("building %s: %w", c.key(), err)
		}
	}
	return cells, nil
}

// cellRun is one RunCell call as the benchmark saw it.
type cellRun struct {
	wall   time.Duration
	cr     bench.CellResult
	newMgr time.Duration // RunCell entry to Build entry (traced only)
	build  time.Duration // the Build call (traced only)
	stats  bdd.Stats     // the cell's manager after the run (traced only)
}

// iterObserver records one span per iterate: from the previous event
// (or the engine's start) to this OnIteration.
type iterObserver struct {
	rec    *recorder
	trace  string
	parent int64
	last   time.Time
}

func (o *iterObserver) OnIteration(e verify.IterationEvent) {
	now := time.Now()
	o.rec.add(o.trace, "iterate", o.parent, o.last, now)
	o.last = now
}
func (o *iterObserver) OnMerge(verify.MergeEvent)       {}
func (o *iterObserver) OnTermResolved(verify.TermEvent) {}

// runPaperCell runs one cell through bench.RunCell. Traced, it wraps
// the cell's Build to time it and to capture the manager RunCell made,
// and records the spans cell -> manager_new -> build -> engine ->
// iterate.
func runPaperCell(ctx context.Context, c paperCell, rec *recorder, trace string, parent int64) cellRun {
	if rec == nil {
		t0 := time.Now()
		cr := bench.RunCell(ctx, c.cell, c.budget)
		return cellRun{wall: time.Since(t0), cr: cr}
	}
	cell := c.cell
	// The engine span's id is not known until RunCell returns, so the
	// iterate spans are recorded without a parent and re-linked below.
	obs := &iterObserver{rec: rec, trace: trace}
	cell.Opt.Observer = obs
	var m *bdd.Manager
	var b0, b1 time.Time
	build := cell.Build
	cell.Build = func(mm *bdd.Manager) verify.Problem {
		b0 = time.Now()
		m = mm
		p := build(mm)
		b1 = time.Now()
		obs.last = b1
		return p
	}
	t0 := time.Now()
	cr := bench.RunCell(ctx, cell, c.budget)
	t1 := time.Now()
	root := rec.add(trace, "cell", parent, t0, t1)
	rec.add(trace, "manager_new", root, t0, b0)
	rec.add(trace, "build", root, b0, b1)
	eng := rec.add(trace, "engine", root, b1, t1)
	rec.reparent(trace, "iterate", eng)
	stats := m.Stats()
	m = nil // cr.Cell.Build still holds the closure; let the manager go
	return cellRun{wall: t1.Sub(t0), cr: cr, newMgr: b0.Sub(t0), build: b1.Sub(b0), stats: stats}
}

// check compares a cell's result with its recorded expectation.
func (c paperCell) check(res *result, cr bench.CellResult) {
	r := cr.Result
	res.mix[r.Outcome.String()]++
	if r.Outcome != c.outcome || r.Iterations != c.iterations || r.PeakStateNodes != c.peak {
		res.fail("%s: got %v iter=%d peak=%d, recorded %v iter=%d peak=%d",
			c.key(), r.Outcome, r.Iterations, r.PeakStateNodes, c.outcome, c.iterations, c.peak)
	}
}

// heapSampler samples the Go heap's object bytes, in MB, every 5 ms
// while a traced pass runs, for its peak.
func heapSampler() *sampler {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	return startSampler(5*time.Millisecond, func() (float64, error) {
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64()) / (1 << 20), nil
	})
}

// runTables is the paper-tables workload: whole passes over the cell
// list, in process, one cell at a time, as icibench runs them. A new
// pass starts only if the previous pass's length still fits in the
// window; the run makes at least one pass, and a traced run three (the
// second traced, between two untraced ones, for the tracing overhead).
func runTables(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	var setups []float64
	var cells []paperCell
	for i := 0; i < tablesReps; i++ {
		c0 := cpuTime()
		var err error
		if cells, err = tablesSetup(); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
	}
	res.metrics["setup_s"] = median(setups)

	var walls, passes, geos []float64
	// CPU time per cell of each untraced pass, and of the passes in
	// which the hypervisor stole at most maxStealPct of host CPU time
	// (why: see sampler.calm).
	var passCPU, calmCPU []float64
	steal := startSteal()
	rssS := rssSampler("self")
	minPasses := 1
	if cfg.trace {
		minPasses = 3
	}
	start := time.Now()
	var traced []cellRun
	var rec *recorder
	var heap *sampler
	var gc0, gc1 runtime.MemStats
	var tracedPass float64
	for pass := 0; ctx.Err() == nil; pass++ {
		if pass >= minPasses {
			last := time.Duration(passes[len(passes)-1] * float64(time.Second))
			if time.Since(start)+last > cfg.seconds {
				break
			}
		}
		tracePass := cfg.trace && pass == 1
		if tracePass {
			rec = newRecorder()
			heap = heapSampler()
			runtime.ReadMemStats(&gc0)
		}
		p0, pc0, ps := time.Now(), cpuTime(), startSteal()
		var passWalls []float64
		for i, c := range cells {
			var r cellRun
			if tracePass {
				r = runPaperCell(ctx, c, rec, fmt.Sprintf("cell-%02d", i), 0)
				traced = append(traced, r)
			} else {
				r = runPaperCell(ctx, c, nil, "", 0)
			}
			res.attempted++
			c.check(res, r.cr)
			passWalls = append(passWalls, ms(r.wall))
		}
		pt, pc, pSteal := time.Since(p0).Seconds(), ms(cpuTime()-pc0), ps.pct()
		res.printf("pass %d: wall %.3fs, cpu %.3fs, steal %.1f%%", pass, pt, pc/1e3, pSteal)
		if pass == 0 {
			res.printf("slowest cells: %s", slowest(cells, passWalls, 5))
		}
		if tracePass {
			runtime.ReadMemStats(&gc1)
			if err := heap.finish(); err != nil {
				return nil, err
			}
			res.metrics["runtime.heap_peak_mb"] = slices.Max(heap.v)
			tracedPass = pt
			continue // the traced pass's times stay out of the end-to-end figures
		}
		passes = append(passes, pt)
		passCPU = append(passCPU, pc/float64(len(cells)))
		if pSteal <= maxStealPct {
			calmCPU = append(calmCPU, pc/float64(len(cells)))
		}
		geos = append(geos, geomean(passWalls))
		walls = append(walls, passWalls...)
	}
	if err := rssS.finish(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rss := median(rssS.v)
	var err error
	if res.metrics["rss_peak_mb"], err = vmHWM("self"); err != nil {
		return nil, err
	}
	jobs := summarize(walls, 0.99)
	res.metrics["host.steal_pct"] = steal.pct()
	if len(calmCPU) == 0 {
		calmCPU = passCPU
	}
	res.metrics["cpu_ms_per_job"] = median(calmCPU)
	res.metrics["job_p50_ms"] = jobs.P50
	res.metrics["job_p99_ms"] = jobs.High
	res.metrics["jobs_per_s"] = float64(len(walls)) / sum(passes)
	res.metrics["rss_mb"] = rss
	res.metrics["tables_s"] = median(passes)
	res.metrics["cell_geomean_ms"] = median(geos)
	res.printf("setup: %d cells, cpu %v s, median %.3fs", len(cells), setups, median(setups))
	res.printf("cpu per cell: %.2fms (median over %d of %d untraced passes with at most %d%% steal); rss median %.1fMB, peak %.1fMB; steal %.1f%% of host CPU",
		res.metrics["cpu_ms_per_job"], len(calmCPU), len(passes), maxStealPct, rss, res.metrics["rss_peak_mb"], res.metrics["host.steal_pct"])
	res.printf("tables_s: median %.3fs over %d untraced passes %v", median(passes), len(passes), passes)
	res.printf("cell_ms: %v geomean=%.4g", jobs, median(geos))
	if cfg.trace {
		// Against the untraced passes just before and after it, so that
		// a host whose speed drifts over the run moves both sides alike.
		around := (passes[0] + passes[1]) / 2
		res.metrics["trace.overhead_pct"] = 100 * (tracedPass - around) / around
		tablesLayers(res, traced, rec, &gc0, &gc1)
		if err := rec.write(spanPath(cfg)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tablesLayers folds the traced pass into the per-layer metrics.
func tablesLayers(res *result, runs []cellRun, rec *recorder, gc0, gc1 *runtime.MemStats) {
	var newMgr, build []float64
	var lookups, hits, uniq, gcs, freed uint64
	peakLive, memBytes := 0, 0
	var ph verify.PhaseDurations
	var other time.Duration
	var taut, splits, pairs, merges int
	for _, r := range runs {
		newMgr = append(newMgr, ms(r.newMgr))
		build = append(build, ms(r.build))
		lookups += r.stats.CacheLookups
		hits += r.stats.CacheHits
		uniq += r.stats.UniqueHits
		gcs += uint64(r.stats.GCs)
		freed += uint64(r.stats.FreedNodes)
		peakLive = max(peakLive, r.stats.PeakNodes)
		res := r.cr.Result
		memBytes = max(memBytes, res.MemBytes)
		for i, d := range res.PhaseDurations {
			ph[i] += d
		}
		other += res.Elapsed - res.PhaseDurations.Total()
		taut += res.Term.TautCalls
		splits += res.Term.ShannonSplits
		pairs += res.Eval.PairsScored
		merges += res.Eval.MergesApplied
	}
	m := res.metrics
	m["bdd.manager_new_ms"] = median(newMgr)
	m["bdd.cache_lookups"] = float64(lookups)
	m["bdd.cache_hit_rate"] = float64(hits) / float64(max(lookups, 1))
	m["bdd.unique_hits"] = float64(uniq)
	m["bdd.peak_live_nodes"] = float64(peakLive)
	m["bdd.gcs"] = float64(gcs)
	m["bdd.freed_nodes"] = float64(freed)
	m["bdd.mem_bytes"] = float64(memBytes)
	m["verify.image_s"] = ph[verify.PhaseImage].Seconds()
	m["verify.policy_s"] = ph[verify.PhasePolicy].Seconds()
	m["verify.termination_s"] = ph[verify.PhaseTerm].Seconds()
	m["verify.gc_s"] = ph[verify.PhaseGC].Seconds()
	m["verify.other_s"] = other.Seconds()
	m["core.taut_calls"] = float64(taut)
	m["core.shannon_splits"] = float64(splits)
	m["core.pairs_scored"] = float64(pairs)
	m["core.merges_applied"] = float64(merges)
	m["frontend.build_ms"] = median(build)
	m["runtime.gc_cycles_per_job"] = float64(gc1.NumGC-gc0.NumGC) / float64(max(len(runs), 1))
	m["runtime.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	for _, l := range rec.layers() {
		res.printf("span %-12s n=%-5d total=%.1fms self=%.1fms median=%.3fms", l.Name, l.Count, l.TotalMS, l.SelfMS, l.MedianMS)
	}
}

// slowest names the n cells with the longest walls.
func slowest(cells []paperCell, walls []float64, n int) string {
	idx := make([]int, len(cells))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return walls[idx[a]] > walls[idx[b]] })
	var parts []string
	for _, i := range idx[:min(n, len(idx))] {
		parts = append(parts, fmt.Sprintf("%s/%s %.0fms", cells[i].group, cells[i].label, walls[i]))
	}
	return strings.Join(parts, "; ")
}
