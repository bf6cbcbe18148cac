package difftest

import (
	"path/filepath"
	"testing"

	"repro/internal/verify"
)

// TestCorpus replays every seed file under testdata/corpus: the paper's
// benchmark instances at oracle-checkable sizes plus one regression seed
// per bug this harness has caught. Every instance must run divergence
// free, every violated verdict must carry a Validate-clean trace of the
// agreed depth, and each bugged seed must actually be violated (a corpus
// seed that stops failing is itself a regression).
func TestCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("empty corpus")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			sf, err := LoadSeed(path)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := Generate(sf.Params)
			if err != nil {
				t.Fatal(err)
			}
			rep := RunInstance(inst, Config{})
			if rep.Divergent() {
				t.Fatalf("corpus seed diverges:\n%s", rep.NDJSON())
			}
			sawViolated := false
			for _, v := range rep.Verdicts {
				if v.Outcome != "violated" {
					continue
				}
				sawViolated = true
				if v.TraceErr != "" {
					t.Errorf("%s: unusable trace: %s", v.Engine, v.TraceErr)
				}
				if v.TraceLen != v.Depth {
					t.Errorf("%s: trace length %d != depth %d", v.Engine, v.TraceLen, v.Depth)
				}
			}
			if sf.Params.Bug && !sawViolated {
				t.Error("bugged seed no longer violates — the model's bug went dead")
			}

			// A violated corpus instance must also replay through the
			// partition directly — the SAT-verdict/trace contract,
			// checked here once more outside the driver.
			if sawViolated {
				res := verify.Run(inst.Problem, verify.Forward, verify.Options{WantTrace: true})
				if res.Outcome != verify.Violated {
					t.Fatalf("Forward disagrees with corpus verdicts: %v", res.Outcome)
				}
				if res.Trace == nil {
					t.Fatal("Forward produced no trace")
				}
				if err := res.Trace.Validate(inst.Machine, inst.goodList()); err != nil {
					t.Errorf("Forward trace does not replay: %v", err)
				}
			}
		})
	}
}

// TestCorpusPDR replays the full corpus through the PDR engine family
// alone (with Forward as the agreed reference). TestCorpus already runs PDR
// inside the full grid; this focused replay is the one the race-mode CI
// shard runs, so PDR's obligation machinery gets exercised under the
// race detector without paying for the whole engine grid.
func TestCorpusPDR(t *testing.T) {
	specs, err := FilterEngines(DefaultEngines(), []string{"Fwd", "PDR"})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("empty corpus")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			sf, err := LoadSeed(path)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := Generate(sf.Params)
			if err != nil {
				t.Fatal(err)
			}
			rep := RunInstance(inst, Config{Engines: specs})
			if rep.Divergent() {
				t.Fatalf("PDR diverges:\n%s", rep.NDJSON())
			}
		})
	}
}

// TestFilterEngines: base names keep their ablations, full names are
// exact, unknown names fail loudly.
func TestFilterEngines(t *testing.T) {
	specs := DefaultEngines()

	pdr, err := FilterEngines(specs, []string{"pdr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pdr) != 2 || pdr[0].Name != "PDR" || pdr[1].Name != "PDR/nopolicy" {
		t.Fatalf("pdr filter kept %+v", pdr)
	}

	exact, err := FilterEngines(specs, []string{"XICI/gc2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 1 || exact[0].Name != "XICI/gc2" {
		t.Fatalf("exact filter kept %+v", exact)
	}

	if _, err := FilterEngines(specs, []string{"Fwd", "nope"}); err == nil {
		t.Fatal("unknown engine name did not error")
	}
}
