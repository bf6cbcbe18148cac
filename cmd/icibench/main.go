// Command icibench regenerates the paper's experiment tables.
//
// Usage:
//
//	icibench                # all three tables at full size
//	icibench -table 2       # one table
//	icibench -quick         # shrunken sizes (seconds instead of minutes)
//	icibench -table 3 -assisted  # include the user-partition comparison
//	icibench -parallel 4    # run each table's cells on 4 workers
//	icibench -engines Bkwd,XICI  # only these engines' rows
//	icibench -json out.json # also write machine-readable results
//	icibench -effort        # append effort counters to each text row
//	icibench -pprof localhost:6060  # serve net/http/pprof while running
//	icibench -zoo -quick    # the model-zoo grid: every registry entry at its smallest size
//	icibench -serve http://localhost:8080 -quick  # drive a remote icid via its batch API
//
// The -zoo grid replaces the paper tables with one group per (zoo
// entry, size) pair — the parameterized families plus every imported
// `.fsm` machine — under Forward, XICI, and PDR. Entries whose property
// is violated by design report VIOLATED rows, so the grid normally
// exits 1. Engine names given to -engines resolve case-insensitively
// ("pdr" works).
//
// Each cell runs on a fresh BDD manager under a node/time budget playing
// the role of the paper's "Exceeded 60MB" / "Exceeded 40 minutes" limits;
// see EXPERIMENTS.md for the calibration and the paper-vs-measured
// discussion. With -parallel N the cells of a table run concurrently (a
// cell is self-contained: own manager, own budget), which changes only
// wall time, never the table contents — though on a loaded machine a
// cell near its time budget can tip into "Exceeded time budget". Ctrl-C
// cancels the grid cleanly: in-flight cells abort promptly and report
// as canceled. The -json schema ("icibench/v3", with the per-table
// budget, per-row termination cause, and the per-cell effort stats
// block) is documented in EXPERIMENTS.md.
//
// Exit codes mirror iciverify's, aggregated over every cell that ran
// (violation outranks exhaustion):
//
//	0  every cell verified its property
//	1  at least one cell found a property violation
//	2  usage or configuration error (bad flag, unknown engine, ...)
//	3  no violation, but at least one cell exhausted its budget — the
//	   typed causes (node-limit, deadline, canceled, iteration-cap) are
//	   listed in the closing summary
//
// Since the tables deliberately run engines into the paper's budget
// walls, exit 3 is the expected outcome of a full run; scripts that
// only care about correctness should treat 1 as the failure signal.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/verify"
)

func main() {
	var (
		table     = flag.Int("table", 0, "table to run (1, 2 or 3; 0 = all)")
		quick     = flag.Bool("quick", false, "shrunken sizes for a fast smoke run")
		assisted  = flag.Bool("assisted", false, "table 3: add the user-partition group")
		parallel  = flag.Int("parallel", 0, "cells per table to run concurrently (0 or 1 = sequential, < 0 = GOMAXPROCS)")
		engines   = flag.String("engines", "", "comma-separated engines: keep only these rows; \"list\" prints the registered engines and exits")
		jsonPath  = flag.String("json", "", "write machine-readable results to this path")
		effort    = flag.Bool("effort", false, "append effort counters and phase times to each text row")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the grid's duration")
		zooGrid   = flag.Bool("zoo", false, "run the model-zoo grid (every zoo registry entry, including imported .fsm machines) instead of the paper tables")
		serve     = flag.String("serve", "", "drive a remote icid at this base URL (e.g. http://localhost:8080) instead of running cells in-process; submits the zoo grid through its batch API")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "icibench: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("(pprof listening on http://%s/debug/pprof/)\n", *pprofAddr)
	}

	if *engines == "list" {
		for _, name := range verify.Registered() {
			fmt.Println(name)
		}
		return
	}
	var methods []verify.Method
	if *engines != "" {
		for _, name := range strings.Split(*engines, ",") {
			meth, ok := verify.Resolve(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "icibench: unknown engine %q (try -engines list)\n", strings.TrimSpace(name))
				os.Exit(2)
			}
			methods = append(methods, meth)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *serve != "" {
		os.Exit(runServe(ctx, os.Stdout, *serve, *quick, methods, *jsonPath))
	}

	report := &bench.Report{
		Schema:    bench.ReportSchema,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Quick:     *quick,
		Workers:   *parallel,
	}

	var all []bench.CellResult
	run := func(t bench.Table, b bench.Budget) {
		t = t.Filter(methods)
		t.ShowEffort = *effort
		if len(t.Cells) == 0 {
			return
		}
		start := time.Now()
		var results []bench.CellResult
		if *parallel != 0 && *parallel != 1 {
			results = t.RunParallel(ctx, os.Stdout, b, *parallel)
		} else {
			results = t.Run(ctx, os.Stdout, b)
		}
		elapsed := time.Since(start)
		fmt.Printf("(%s finished in %v)\n\n", t.Title, elapsed.Round(time.Millisecond))
		report.Add(t.Title, elapsed, b, results)
		all = append(all, results...)
	}

	if *zooGrid {
		run(bench.ZooTable(*quick))
	} else {
		if *table == 0 || *table == 1 {
			run(bench.Table1(*quick))
		}
		if *table == 0 || *table == 2 {
			run(bench.Table2(*quick))
		}
		if *table == 0 || *table == 3 {
			t, b := bench.Table3(*quick, *assisted)
			run(t, b)
		}
	}

	if *jsonPath != "" {
		if err := report.Write(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "icibench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("(wrote %s)\n", *jsonPath)
	}
	os.Exit(gridExitCode(all))
}

// gridExitCode aggregates the cell outcomes into the documented exit
// code — 1 for any violation, else 3 for any budget exhaustion, else 0
// — and, on a non-zero code, prints a one-line summary with the typed
// causes (Result.Cause()) of the exhausted cells.
func gridExitCode(all []bench.CellResult) int {
	var violated, exhausted int
	causes := map[string]int{}
	for _, cr := range all {
		switch cr.Result.Outcome {
		case verify.Violated:
			violated++
		case verify.Exhausted:
			exhausted++
			causes[cr.Result.Cause()]++
		}
	}
	switch {
	case violated > 0:
		fmt.Fprintf(os.Stderr, "icibench: %d cell(s) VIOLATED their property\n", violated)
		return 1
	case exhausted > 0:
		parts := make([]string, 0, len(causes))
		for _, c := range []string{"node-limit", "deadline", "canceled", "iteration-cap", "other"} {
			if n := causes[c]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s: %d", c, n))
			}
		}
		fmt.Fprintf(os.Stderr, "icibench: %d cell(s) exhausted their budget (%s)\n",
			exhausted, strings.Join(parts, ", "))
		return 3
	}
	return 0
}
