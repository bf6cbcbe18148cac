package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/bdd"
	"repro/internal/models"
	"repro/internal/verify"
)

// The parallel-vs-sequential speedup grid behind icibench -speedup: each
// cell runs the XICI engine on one model three ways — sequential,
// per-worker-manager parallel scoring (the Transfer-based path), and
// shared-memory concurrent scoring on one bdd.NewShared manager — and
// records the wall-clock ratios plus a verdict/iteration-count agreement
// check. CI commits the JSON as BENCH_<date>.json so speedups are
// tracked alongside the code they measure.

// SpeedupSchema identifies the -speedup JSON layout.
const SpeedupSchema = "icibench-speedup/v1"

// SpeedupCell is one model configuration in the speedup grid.
type SpeedupCell struct {
	Group string
	Build func(m *bdd.Manager) verify.Problem
}

// SpeedupCells is the FIFO/filter grid measured by icibench -speedup.
// XICI pair scoring dominates these runs, which is the phase the
// concurrent manager parallelizes; quick mode shrinks the sizes.
func SpeedupCells(quick bool) []SpeedupCell {
	if quick {
		return []SpeedupCell{
			{Group: "FIFO depth=3", Build: func(m *bdd.Manager) verify.Problem {
				return models.NewFIFO(m, models.DefaultFIFO(3))
			}},
			{Group: "Filter depth=4", Build: func(m *bdd.Manager) verify.Problem {
				return models.NewFilter(m, models.FilterConfig{Depth: 4, SampleWidth: 4, Assist: true})
			}},
		}
	}
	return []SpeedupCell{
		{Group: "FIFO depth=4", Build: func(m *bdd.Manager) verify.Problem {
			return models.NewFIFO(m, models.DefaultFIFO(4))
		}},
		{Group: "FIFO depth=5", Build: func(m *bdd.Manager) verify.Problem {
			return models.NewFIFO(m, models.DefaultFIFO(5))
		}},
		{Group: "Filter depth=8", Build: func(m *bdd.Manager) verify.Problem {
			return models.NewFilter(m, models.FilterConfig{Depth: 8, SampleWidth: 8, Assist: true})
		}},
		{Group: "Filter depth=16", Build: func(m *bdd.Manager) verify.Problem {
			return models.NewFilter(m, models.FilterConfig{Depth: 16, SampleWidth: 8, Assist: true})
		}},
	}
}

// SpeedupCellReport is one grid cell's measurements. The *MS fields are
// best-of-Repeats wall times; the ratios derive from them. VerdictsAgree
// asserts the determinism contract: all three configurations must report
// the same outcome and iteration count (they share the canonicity
// argument of DESIGN.md §12), so a false value is a correctness bug, not
// a performance artifact.
type SpeedupCellReport struct {
	Group             string   `json:"group"`
	Method            string   `json:"method"`
	SeqMS             float64  `json:"seq_ms"`
	PerWorkerMS       float64  `json:"per_worker_ms"`
	SharedMS          float64  `json:"shared_ms"`
	SharedVsSeq       float64  `json:"shared_vs_seq"`
	SharedVsPerWorker float64  `json:"shared_vs_per_worker"`
	VerdictsAgree     bool     `json:"verdicts_agree"`
	Outcome           string   `json:"outcome"`
	Iterations        int      `json:"iterations"`
	SeqStats          RepStats `json:"seq_stats"`
	PerWorkerStats    RepStats `json:"per_worker_stats"`
	SharedStats       RepStats `json:"shared_stats"`
}

// RepStats summarizes the full repetition sample behind one best-of
// wall time, so a lucky best cannot hide run-to-run noise: a variance
// comparable to the mean gap between two configurations means the
// headline ratio is not trustworthy at this repeat count.
type RepStats struct {
	MinMS      float64 `json:"min_ms"`
	MaxMS      float64 `json:"max_ms"`
	MeanMS     float64 `json:"mean_ms"`
	VarianceMS float64 `json:"variance_ms2"` // population variance, ms²
}

func repStats(walls []time.Duration) RepStats {
	var s RepStats
	if len(walls) == 0 {
		return s
	}
	toMS := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	s.MinMS, s.MaxMS = toMS(walls[0]), toMS(walls[0])
	sum := 0.0
	for _, d := range walls {
		ms := toMS(d)
		if ms < s.MinMS {
			s.MinMS = ms
		}
		if ms > s.MaxMS {
			s.MaxMS = ms
		}
		sum += ms
	}
	s.MeanMS = sum / float64(len(walls))
	for _, d := range walls {
		dev := toMS(d) - s.MeanMS
		s.VarianceMS += dev * dev
	}
	s.VarianceMS /= float64(len(walls))
	return s
}

// SpeedupReport is the top-level -speedup JSON document. The GOMAXPROCS
// and NumCPU fields keep the numbers honest: a Workers=8 run on a
// single-core container measures hand-off elimination (Transfer and
// mirror-population work the shared path never does), not parallelism.
// Degraded makes that condition impossible to miss: it is true whenever
// the grid ran without schedulable parallelism, and any "speedup" in a
// degraded report must not be quoted as one.
type SpeedupReport struct {
	Schema     string              `json:"schema"`
	Generated  string              `json:"generated,omitempty"` // RFC 3339
	Workers    int                 `json:"workers"`
	Repeats    int                 `json:"repeats"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	NumCPU     int                 `json:"num_cpu"`
	Degraded   bool                `json:"degraded"`
	Quick      bool                `json:"quick"`
	Cells      []SpeedupCellReport `json:"cells"`
}

// runSpeedupConfig runs one (cell, manager-mode) configuration once and
// returns the result plus its wall time.
func runSpeedupConfig(ctx context.Context, c SpeedupCell, opt verify.Options, budget Budget) (verify.Result, time.Duration) {
	var m *bdd.Manager
	if opt.SharedManager {
		m = bdd.NewShared(opt.Workers, 20)
	} else {
		m = bdd.New()
	}
	p := c.Build(m)
	opt.Budget = budget.Norm()
	start := time.Now()
	res := verify.RunContext(ctx, p, verify.XICI, opt)
	return res, time.Since(start)
}

// RunSpeedup executes the grid: every cell in sequential, per-worker,
// and shared configuration, best-of-reps wall time each, with progress
// rows streamed to w.
func RunSpeedup(ctx context.Context, w io.Writer, workers, reps int, quick bool, budget Budget) *SpeedupReport {
	if workers <= 0 {
		workers = 8
	}
	if reps <= 0 {
		reps = 3
	}
	rep := &SpeedupReport{
		Schema:     SpeedupSchema,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Workers:    workers,
		Repeats:    reps,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      quick,
	}
	rep.Degraded = rep.GOMAXPROCS <= 1 || rep.NumCPU <= 1
	if rep.Degraded {
		fmt.Fprintf(w, "WARNING: no schedulable parallelism (GOMAXPROCS=%d, NumCPU=%d); ratios measure hand-off elimination only\n",
			rep.GOMAXPROCS, rep.NumCPU)
	}
	fmt.Fprintf(w, "Speedup grid: XICI, workers=%d, best of %d (GOMAXPROCS=%d, NumCPU=%d)\n",
		workers, reps, rep.GOMAXPROCS, rep.NumCPU)
	fmt.Fprintf(w, "%-16s %10s %12s %10s %8s %8s\n",
		"cell", "seq", "per-worker", "shared", "vs-seq", "vs-pw")

	configs := []verify.Options{
		{},
		{Workers: workers},
		{Workers: workers, SharedManager: true},
	}
	for _, c := range SpeedupCells(quick) {
		var best [3]time.Duration
		var walls [3][]time.Duration
		var results [3]verify.Result
		for cfg, opt := range configs {
			for r := 0; r < reps; r++ {
				res, wall := runSpeedupConfig(ctx, c, opt, budget)
				walls[cfg] = append(walls[cfg], wall)
				if r == 0 || wall < best[cfg] {
					best[cfg] = wall
					results[cfg] = res
				}
			}
		}
		agree := results[0].Outcome == results[1].Outcome &&
			results[1].Outcome == results[2].Outcome &&
			results[0].Iterations == results[1].Iterations &&
			results[1].Iterations == results[2].Iterations
		cr := SpeedupCellReport{
			Group:         c.Group,
			Method:        string(verify.XICI),
			SeqMS:         float64(best[0].Microseconds()) / 1000,
			PerWorkerMS:   float64(best[1].Microseconds()) / 1000,
			SharedMS:      float64(best[2].Microseconds()) / 1000,
			VerdictsAgree: agree,
			Outcome:       results[0].Outcome.String(),
			Iterations:    results[0].Iterations,

			SeqStats:       repStats(walls[0]),
			PerWorkerStats: repStats(walls[1]),
			SharedStats:    repStats(walls[2]),
		}
		if cr.SharedMS > 0 {
			cr.SharedVsSeq = cr.SeqMS / cr.SharedMS
			cr.SharedVsPerWorker = cr.PerWorkerMS / cr.SharedMS
		}
		rep.Cells = append(rep.Cells, cr)
		mark := ""
		if !agree {
			mark = "  DISAGREE"
		}
		fmt.Fprintf(w, "%-16s %9.1fms %11.1fms %9.1fms %7.2fx %7.2fx%s\n",
			c.Group, cr.SeqMS, cr.PerWorkerMS, cr.SharedMS, cr.SharedVsSeq, cr.SharedVsPerWorker, mark)
	}
	return rep
}

// Write marshals the speedup report (indented, trailing newline) to path.
func (r *SpeedupReport) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
