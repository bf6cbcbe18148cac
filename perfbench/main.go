// Command perfbench is the repository's benchmark: it measures the
// verifier on cells of the paper's tables and the icid service on cold
// jobs, hot (cached) jobs and portfolio batches, end to end and per
// layer, and checks every verdict it measures. See README.md.
//
//	bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	icid    string // path of the icid binary
	out     string // directory for scratch stores and span files
	name    string // workload name
}

// workload runs one workload and returns its measurements. An error
// means the benchmark could not run at all (no result is printed).
type workload func(ctx context.Context, cfg config) (*result, error)

var workloads = map[string]workload{
	"paper-tables":    runTables,
	"jobs-cold":       runJobsCold,
	"jobs-hot":        runJobsHot,
	"batch-portfolio": runBatch,
}

// result collects one run's counts, checks and metric values.
type result struct {
	attempted int
	failed    int
	reasons   []string // the first few failure reasons, for stderr
	metrics   map[string]float64
	report    []string // human-readable lines printed before the result
	mix       map[string]int
}

func newResult() *result {
	return &result{metrics: make(map[string]float64), mix: make(map[string]int)}
}

// fail counts one failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.reasons) < 20 {
		r.reasons = append(r.reasons, fmt.Sprintf(format, args...))
	}
}

func (r *result) printf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// setLayerDefaults gives every per-layer metric a value, 0 for the
// layers the workload does not exercise.
func (r *result) setLayerDefaults() {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.Name]; !ok {
			r.metrics[m.Name] = 0
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// final builds the result line for the metric list the trace mode
// selects. A metric the workload failed to set is a bug in the
// benchmark and fails the run.
func (r *result) final(trace bool) finalLine {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := finalLine{Attempted: r.attempted, Metrics: make(map[string]metricValue, len(defs))}
	for _, m := range defs {
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s was not measured", m.Name)
			v = 0
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if out.Attempted < 1 {
		r.fail("no operation was attempted")
		out.Attempted = 1
	}
	out.Failed = r.failed
	out.Correct = r.failed == 0
	return out
}

// host is the record of the machine and build a result was made on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	Degraded   bool   `json:"degraded"` // fewer than 2 CPUs: the 2-client workloads cannot run in parallel
}

func hostRecord(cfg config) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Seed:       cfg.seed,
		Workload:   cfg.name,
		Trace:      cfg.trace,
		Degraded:   runtime.NumCPU() < 2,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git in the working
// directory; a checkout without git metadata reports "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	id, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.name, "workload", "", "workload: paper-tables, jobs-cold, jobs-hot or batch-portfolio")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.icid, "icid", ".bench_build/perfbench/icid", "icid binary")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for scratch stores and span files")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	w, ok := workloads[cfg.name]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (paper-tables, jobs-cold, jobs-hot, batch-portfolio), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	h := hostRecord(cfg)
	hj, _ := json.Marshal(map[string]host{"host": h}) // a struct of plain fields always marshals
	fmt.Println(string(hj))
	if h.Degraded {
		fmt.Println("degraded: fewer than 2 CPUs, client and server share one core")
	}

	res, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.name, err)
		os.Exit(1)
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "perfbench: interrupted\n")
		os.Exit(1)
	}
	res.metrics["failed_share"] = float64(res.failed) / math.Max(1, float64(res.attempted))
	res.setLayerDefaults()
	fl := res.final(cfg.trace)

	for _, line := range res.report {
		fmt.Println(line)
	}
	fmt.Printf("mix: verified=%d violated=%d exhausted=%d\n",
		res.mix["verified"], res.mix["violated"], res.mix["exhausted"])
	fmt.Printf("failed_share: %d/%d\n", fl.Failed, fl.Attempted)
	for _, why := range res.reasons {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", why)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Printf("%-32s %14.6g %s\n", m.Name, fl.Metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(fl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
