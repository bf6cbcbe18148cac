package zoo

import (
	"testing"

	"repro/internal/bdd"
	"repro/internal/resource"
	"repro/internal/verify"
)

// TestSmoke is the registry acceptance gate (mirrored by the CI
// zoo-smoke job): every registered entry must build at its smallest
// size, instantiate, and produce an agreeing
// definite verdict from two engines under a small budget.
func TestSmoke(t *testing.T) {
	if len(Names()) < 10 {
		t.Fatalf("registry has %d entries, want >= 10", len(Names()))
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, ok := Get(name)
			if !ok {
				t.Fatal("entry vanished")
			}
			mo, err := e.Model(e.Sizes[0])
			if err != nil {
				t.Fatalf("build at smallest size: %v", err)
			}

			prob, err := mo.Instantiate(bdd.New())
			if err != nil {
				t.Fatalf("instantiate: %v", err)
			}
			var first verify.Outcome
			for i, method := range []verify.Method{verify.Forward, verify.XICI} {
				res := verify.Run(prob, method, verify.Options{
					Budget: resource.Budget{NodeLimit: 4 << 20},
				})
				if res.Outcome != verify.Verified && res.Outcome != verify.Violated {
					t.Fatalf("%s: indefinite outcome %v (%s)", method, res.Outcome, res.Cause())
				}
				if i == 0 {
					first = res.Outcome
				} else if res.Outcome != first {
					t.Fatalf("%s: outcome %v disagrees with %v", method, res.Outcome, first)
				}
			}
		})
	}
}

// TestBuggedVariantsViolate pins the seeded bug of each new family:
// a registered bug that stops violating has gone dead.
func TestBuggedVariantsViolate(t *testing.T) {
	cases := []struct {
		name string
		size Size
	}{
		{"elevator", Size{"floors": 2, "bug": 1}},
		{"traffic", Size{"roads": 2, "bug": 1}},
		{"protostack", Size{"layers": 2, "bug": 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mo, err := Build(tc.name, tc.size)
			if err != nil {
				t.Fatal(err)
			}
			prob := mo.MustInstantiate(bdd.New())
			res := verify.Run(prob, verify.Forward, verify.Options{WantTrace: true})
			if res.Outcome != verify.Violated {
				t.Fatalf("bugged %s: outcome %v, want Violated", tc.name, res.Outcome)
			}
			gl := prob.GoodList
			if len(gl) == 0 {
				gl = []bdd.Ref{prob.Good}
			}
			if err := res.Trace.Validate(prob.Machine, gl); err != nil {
				t.Fatalf("bugged %s: trace does not replay: %v", tc.name, err)
			}
		})
	}
}

// TestUnknownParameterRejected checks the user-facing size validation
// (the icid builtin endpoint path).
func TestUnknownParameterRejected(t *testing.T) {
	if _, err := Build("fifo", Size{"depht": 3}); err == nil {
		t.Fatal("misspelled parameter accepted")
	}
	if _, err := Build("no-such-model", nil); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Build("fifo", Size{"depth": -1}); err == nil {
		t.Fatal("invalid size accepted")
	}
}
