// Command iciverify runs one verification engine on one benchmark model
// and prints the paper-style statistics row, optionally with a
// counterexample trace.
//
// Usage:
//
//	iciverify -model fifo -size 5 -method XICI
//	iciverify -model filter -size 8 -assist -method ICI
//	iciverify -model pipeline -regs 2 -bits 3 -method Bkwd -nodelimit 2000000
//	iciverify -model network -size 4 -method FD
//	iciverify -model fifo -size 3 -bug -method Fwd -trace
//	iciverify -model fifo -size 4 -engines Fwd,Bkwd,XICI
//	iciverify -model elevator -params floors=5
//	iciverify -model fsm/turnstile -method Fwd -trace
//	iciverify -fsm machine.fsm -method XICI
//	iciverify -engines list
//
// Built-in models resolve through the zoo registry (every entry `icid`
// serves and `icibench -zoo` grids): the paper families take the flat
// flags (fifo size = depth, network size = processors, filter size =
// window depth, pipeline -regs/-bits), and every entry takes named
// -params name=value pairs, which win over the flat flags. -fsm imports
// an FSM-toolkit .fsm machine from disk (see internal/fsmtk); -file
// verifies a textual model (see internal/lang).
// Ctrl-C cancels a running traversal cleanly (reported as exhausted).
//
// Exit codes (multi-engine runs report the worst outcome, where
// violation outranks exhaustion):
//
//	0  every engine verified the property
//	1  an engine found a property violation (or its trace failed replay)
//	2  usage or configuration error (bad flag, unknown model/engine, ...)
//	3  a run exhausted its budget — the typed cause (node-limit,
//	   deadline, canceled, iteration-cap) is printed with the row
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/fsmtk"
	"repro/internal/lang"
	"repro/internal/resource"
	"repro/internal/verify"
	"repro/internal/zoo"
)

func main() {
	var (
		model     = flag.String("model", "fifo", "zoo model name (fifo, network, filter, pipeline, coherence, link, elevator, traffic, protostack, fsm/..., ...)")
		params    = flag.String("params", "", "comma-separated name=value zoo parameters (e.g. floors=5,bug=1); these win over the flat size flags")
		size      = flag.Int("size", 5, "model size (fifo depth, network processors, filter depth, coherence caches, link data bits)")
		regs      = flag.Int("regs", 2, "pipeline: number of registers")
		bits      = flag.Int("bits", 1, "pipeline: datapath width")
		method    = flag.String("method", "XICI", "method: Fwd, FwdID, Bkwd, FD, ICI, XICI, Induction")
		engines   = flag.String("engines", "", "comma-separated engines to run in sequence (overrides -method); \"list\" prints the registered engines and exits")
		assist    = flag.Bool("assist", false, "supply user assisting invariants / partition")
		bug       = flag.Bool("bug", false, "seed the model's bug")
		trace     = flag.Bool("trace", false, "print a counterexample trace on violation")
		nodeLimit = flag.Int("nodelimit", 0, "abort when live BDD nodes exceed this (0 = unlimited)")
		timeout   = flag.Duration("timeout", 0, "abort after this wall time (0 = unlimited)")
		maxIter   = flag.Int("maxiter", 0, "abort after this many traversal iterations (0 = engine default)")
		threshold = flag.Float64("threshold", core.DefaultGrowThreshold, "XICI GrowThreshold")
		compose   = flag.Bool("compose", false, "use functional-composition back images instead of the relational product")
		termMode  = flag.String("term", "exact", "XICI termination test: exact, implication, fast")
		dotOut    = flag.String("dot", "", "write the property BDD(s) as Graphviz DOT to this file")
		file      = flag.String("file", "", "verify a textual model file instead of a built-in model (see internal/lang)")
		fsmFile   = flag.String("fsm", "", "import and verify an FSM-toolkit .fsm machine file (see internal/fsmtk)")
		stats     = flag.Bool("stats", false, "print per-phase timings and effort counters after each run")
		events    = flag.String("events", "", "append an NDJSON event log (iteration/merge/termination events) to this file")
	)
	flag.Parse()

	if *engines == "list" {
		for _, name := range verify.Registered() {
			fmt.Println(name)
		}
		return
	}

	// Ctrl-C cancels the run cleanly: BDD operations abort on the next
	// budget check and the engine reports Exhausted/canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	m := bdd.New()
	var p verify.Problem
	switch {
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iciverify: %v\n", err)
			os.Exit(2)
		}
		p, err = lang.Parse(m, string(src), *file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iciverify: %v\n", err)
			os.Exit(2)
		}
	case *fsmFile != "":
		src, err := os.ReadFile(*fsmFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iciverify: %v\n", err)
			os.Exit(2)
		}
		mo, err := fsmtk.Import(src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iciverify: %s: %v\n", *fsmFile, err)
			os.Exit(2)
		}
		p, err = mo.Instantiate(m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iciverify: %v\n", err)
			os.Exit(2)
		}
	default:
		sz, err := modelSize(*model, *size, *regs, *bits, *assist, *bug, *params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iciverify: %v\n", err)
			os.Exit(2)
		}
		mo, err := zoo.Build(*model, sz)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iciverify: %v\n", err)
			os.Exit(2)
		}
		p, err = mo.Instantiate(m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iciverify: %v\n", err)
			os.Exit(2)
		}
	}
	if *compose {
		p.Machine.PreImageMode = fsm.PreCompose
	}

	var tm verify.TerminationMode
	switch *termMode {
	case "exact":
		tm = verify.TermExact
	case "implication":
		tm = verify.TermImplication
	case "fast":
		tm = verify.TermFast
	default:
		fmt.Fprintf(os.Stderr, "iciverify: unknown termination mode %q\n", *termMode)
		os.Exit(2)
	}

	opt := verify.Options{
		Budget: resource.Budget{
			NodeLimit:     *nodeLimit,
			Timeout:       *timeout,
			MaxIterations: *maxIter,
		},
		WantTrace:   *trace,
		Termination: tm,
		Core:        core.Options{GrowThreshold: *threshold},
	}

	var elog *verify.NDJSONObserver
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iciverify: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		elog = verify.NewNDJSONObserver(f)
		opt.Observer = elog
	}

	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iciverify: %v\n", err)
			os.Exit(2)
		}
		goods := p.GoodList
		if goods == nil {
			goods = []bdd.Ref{p.Good}
		}
		if err := m.WriteDOT(f, goods...); err != nil {
			fmt.Fprintf(os.Stderr, "iciverify: %v\n", err)
			os.Exit(2)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "iciverify: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote property BDDs to %s\n", *dotOut)
	}

	// The run list: -engines selects several, -method one; both resolve
	// through the engine registry, case-insensitively ("pdr" works).
	var names []string
	if *engines != "" {
		names = strings.Split(*engines, ",")
	} else {
		names = []string{*method}
	}
	var methods []verify.Method
	for _, name := range names {
		meth, ok := verify.Resolve(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "iciverify: unknown method %q (try -engines list)\n", strings.TrimSpace(name))
			os.Exit(2)
		}
		methods = append(methods, meth)
	}

	fmt.Printf("model %s  (%d state bits, %d input bits)\n",
		p.Name, p.Machine.StateBits(), p.Machine.InputBits())

	exit := 0
	for _, meth := range methods {
		if elog != nil {
			elog.SetMethod(string(meth))
		}
		start := time.Now()
		res := verify.RunContext(ctx, p, meth, opt)
		fmt.Println(res)
		if cause := res.Cause(); cause != "" {
			fmt.Printf("cause: %s\n", cause)
		}
		fmt.Printf("wall %v, peak live nodes %d\n", time.Since(start).Round(time.Millisecond), m.PeakNodes())
		if *stats {
			printStats(res, m.Stats())
		}

		if res.Trace != nil {
			goods := p.GoodList
			if goods == nil {
				goods = []bdd.Ref{p.Good}
			}
			if err := res.Trace.Validate(p.Machine, goods); err != nil {
				fmt.Fprintf(os.Stderr, "trace validation FAILED: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("counterexample (validated by replay):")
			rendered, err := res.Trace.Format(m, p.Machine.CurVars())
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace formatting FAILED: %v\n", err)
				os.Exit(1)
			}
			fmt.Print(rendered)
		}
		switch res.Outcome {
		case verify.Violated:
			exit = 1
		case verify.Exhausted:
			if exit == 0 {
				exit = 3
			}
		}
	}
	os.Exit(exit)
}

// legacySizeKey maps the flat -size flag onto the zoo parameter it has
// always meant, for the original six families.
var legacySizeKey = map[string]string{
	"fifo":      "depth",
	"network":   "procs",
	"filter":    "depth",
	"coherence": "caches",
	"link":      "data-bits",
}

// modelSize resolves the flat flags and the -params list into the zoo
// size overrides for the named entry.
func modelSize(model string, size, regs, bits int, assist, bug bool, params string) (zoo.Size, error) {
	sz := zoo.Size{}
	if key, ok := legacySizeKey[model]; ok {
		sz[key] = size
	}
	if model == "pipeline" {
		sz["regs"], sz["width"] = regs, bits
	}
	if assist {
		sz["assist"] = 1
	}
	if bug {
		sz["bug"] = 1
	}
	for _, kv := range strings.Split(params, ",") {
		if kv = strings.TrimSpace(kv); kv == "" {
			continue
		}
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad -params entry %q (want name=value)", kv)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return nil, fmt.Errorf("bad -params value in %q: %v", kv, err)
		}
		sz[strings.TrimSpace(name)] = n
	}
	return sz, nil
}
