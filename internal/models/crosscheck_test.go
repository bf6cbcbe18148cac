package models

import (
	"fmt"
	"testing"

	"repro/internal/bdd"
	"repro/internal/verify"
)

// The refactor contract: every IR-built model is BDD-identical to the
// legacy manager-mutating constructor it replaced — same variables in
// the same order, and Ref-identical initial set, input constraint,
// next-state functions, monolithic property, good list, and functional
// dependencies when both are elaborated against the same variable
// order. TestIRMatchesLegacy runs the IR build on its own manager and
// transfers each component into the legacy manager; TestIRMatchesLegacyShared
// runs both builds on one shared manager and renames the IR variables
// onto the legacy ones, so the contract is also checked without
// bdd.Transfer. Either way BDD canonicity makes Ref equality equivalent
// to function equality.

type crosscheckCase struct {
	name   string
	legacy func(*bdd.Manager) verify.Problem
	ir     func(*bdd.Manager) verify.Problem
}

func crosscheckCases() []crosscheckCase {
	var cases []crosscheckCase
	add := func(name string, legacy, ir func(*bdd.Manager) verify.Problem) {
		cases = append(cases, crosscheckCase{name, legacy, ir})
	}

	for _, cfg := range []FIFOConfig{
		{Width: 4, Depth: 3, Bound: 9},
		{Width: 3, Depth: 2, Bound: 5, Bug: true},
		{Width: 4, Depth: 2, Bound: 9, SlotMajor: true},
	} {
		cfg := cfg
		add(fmt.Sprintf("fifo/w%d-d%d-bug%t-sm%t", cfg.Width, cfg.Depth, cfg.Bug, cfg.SlotMajor),
			func(m *bdd.Manager) verify.Problem { return legacyFIFO(m, cfg) },
			func(m *bdd.Manager) verify.Problem { return NewFIFO(m, cfg) })
	}
	for _, cfg := range []NetworkConfig{{Procs: 2}, {Procs: 3, Bug: true}} {
		cfg := cfg
		add(fmt.Sprintf("network/n%d-bug%t", cfg.Procs, cfg.Bug),
			func(m *bdd.Manager) verify.Problem { return legacyNetwork(m, cfg) },
			func(m *bdd.Manager) verify.Problem { return NewNetwork(m, cfg) })
	}
	for _, cfg := range []FilterConfig{
		{Depth: 4, SampleWidth: 3},
		{Depth: 4, SampleWidth: 3, Assist: true},
		{Depth: 2, SampleWidth: 2, Bug: true},
	} {
		cfg := cfg
		add(fmt.Sprintf("filter/d%d-w%d-assist%t-bug%t", cfg.Depth, cfg.SampleWidth, cfg.Assist, cfg.Bug),
			func(m *bdd.Manager) verify.Problem { return legacyFilter(m, cfg) },
			func(m *bdd.Manager) verify.Problem { return NewFilter(m, cfg) })
	}
	for _, cfg := range []PipelineConfig{
		{Regs: 2, Width: 2},
		{Regs: 2, Width: 1, Assist: true},
		{Regs: 2, Width: 1, Bug: true},
		{Regs: 2, Width: 1, SeparateRegFiles: true},
	} {
		cfg := cfg
		add(fmt.Sprintf("pipeline/r%d-b%d-assist%t-bug%t-sep%t", cfg.Regs, cfg.Width, cfg.Assist, cfg.Bug, cfg.SeparateRegFiles),
			func(m *bdd.Manager) verify.Problem { return legacyPipeline(m, cfg) },
			func(m *bdd.Manager) verify.Problem { return NewPipeline(m, cfg) })
	}
	for _, cfg := range []CoherenceConfig{{Caches: 2}, {Caches: 3, Bug: true}} {
		cfg := cfg
		add(fmt.Sprintf("coherence/n%d-bug%t", cfg.Caches, cfg.Bug),
			func(m *bdd.Manager) verify.Problem { return legacyCoherence(m, cfg) },
			func(m *bdd.Manager) verify.Problem { return NewCoherence(m, cfg) })
	}
	for _, cfg := range []LinkConfig{{DataBits: 2}, {DataBits: 1, Bug: true}} {
		cfg := cfg
		add(fmt.Sprintf("link/w%d-bug%t", cfg.DataBits, cfg.Bug),
			func(m *bdd.Manager) verify.Problem { return legacyLink(m, cfg) },
			func(m *bdd.Manager) verify.Problem { return NewLink(m, cfg) })
	}
	return cases
}

// assertProblemIdentical transfers every BDD component of got (built on
// mGot) into want's manager mWant and requires Ref equality.
func assertProblemIdentical(t *testing.T, mWant *bdd.Manager, want verify.Problem, mGot *bdd.Manager, got verify.Problem) {
	t.Helper()
	if want.Name != got.Name {
		t.Fatalf("Name: legacy %q, IR %q", want.Name, got.Name)
	}
	if mWant.NumVars() != mGot.NumVars() {
		t.Fatalf("variable count: legacy %d, IR %d", mWant.NumVars(), mGot.NumVars())
	}
	for v := 0; v < mWant.NumVars(); v++ {
		if wn, gn := mWant.VarName(bdd.Var(v)), mGot.VarName(bdd.Var(v)); wn != gn {
			t.Fatalf("variable %d: legacy %q, IR %q", v, wn, gn)
		}
	}
	xfer := func(f bdd.Ref) bdd.Ref { return bdd.Transfer(mWant, mGot, f, nil) }
	assertComponentsMatch(t, mWant, want, got, func(v bdd.Var) bdd.Var { return v }, xfer)
}

// assertComponentsMatch requires every BDD component of got, carried
// into want's manager mWant by mapRef (its variables by mapVar), to be
// Ref-equal to the corresponding component of want.
func assertComponentsMatch(t *testing.T, mWant *bdd.Manager, want, got verify.Problem,
	mapVar func(bdd.Var) bdd.Var, mapRef func(bdd.Ref) bdd.Ref) {
	t.Helper()
	xfer := mapRef
	wm, gm := want.Machine, got.Machine
	if wm.StateBits() != gm.StateBits() || wm.InputBits() != gm.InputBits() {
		t.Fatalf("shape: legacy %d/%d state/input bits, IR %d/%d",
			wm.StateBits(), wm.InputBits(), gm.StateBits(), gm.InputBits())
	}
	if xfer(gm.Init()) != wm.Init() {
		t.Fatalf("Init differs")
	}
	if xfer(gm.InputConstraint()) != wm.InputConstraint() {
		t.Fatalf("InputConstraint differs")
	}
	wCur, gCur := wm.CurVars(), gm.CurVars()
	for i := range wCur {
		if wCur[i] != mapVar(gCur[i]) {
			t.Fatalf("state var %d: legacy %v, IR %v", i, wCur[i], gCur[i])
		}
		if xfer(gm.NextFn(gCur[i])) != wm.NextFn(wCur[i]) {
			t.Fatalf("NextFn(%s) differs", mWant.VarName(wCur[i]))
		}
	}
	if xfer(got.Good) != want.Good {
		t.Fatalf("Good differs")
	}
	if len(want.GoodList) != len(got.GoodList) {
		t.Fatalf("GoodList length: legacy %d, IR %d", len(want.GoodList), len(got.GoodList))
	}
	for i := range want.GoodList {
		if xfer(got.GoodList[i]) != want.GoodList[i] {
			t.Fatalf("GoodList[%d] differs", i)
		}
	}
	if len(want.Deps) != len(got.Deps) {
		t.Fatalf("Deps length: legacy %d, IR %d", len(want.Deps), len(got.Deps))
	}
	for i := range want.Deps {
		if want.Deps[i].Var != mapVar(got.Deps[i].Var) {
			t.Fatalf("Deps[%d].Var: legacy %v, IR %v", i, want.Deps[i].Var, got.Deps[i].Var)
		}
		if xfer(got.Deps[i].Def) != want.Deps[i].Def {
			t.Fatalf("Deps[%d].Def differs", i)
		}
	}
}

func TestIRMatchesLegacy(t *testing.T) {
	for _, tc := range crosscheckCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mL := bdd.New()
			want := tc.legacy(mL)
			mI := bdd.New()
			got := tc.ir(mI)
			assertProblemIdentical(t, mL, want, mI, got)
		})
	}
}

// TestIRMatchesLegacyShared builds the legacy model and then the IR
// model on one shared manager. The IR build declares its own copy of
// every variable after the legacy ones, in the same order and with the
// same names; renaming each IR variable onto its legacy counterpart
// must give Ref-identical components in the one unique table. This
// checks the contract without bdd.Transfer, and with the IR build
// running on a manager that already holds another model's nodes.
func TestIRMatchesLegacyShared(t *testing.T) {
	for _, tc := range crosscheckCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m := bdd.New()
			want := tc.legacy(m)
			n := m.NumVars()
			got := tc.ir(m)
			if want.Name != got.Name {
				t.Fatalf("Name: legacy %q, IR %q", want.Name, got.Name)
			}
			if m.NumVars() != 2*n {
				t.Fatalf("variable count: legacy %d, IR %d", n, m.NumVars()-n)
			}
			rename := m.NewSubstitution()
			for v := 0; v < n; v++ {
				lv, iv := bdd.Var(v), bdd.Var(n+v)
				if ln, in := m.VarName(lv), m.VarName(iv); ln != in {
					t.Fatalf("variable %d: legacy %q, IR %q", v, ln, in)
				}
				rename.Set(iv, m.VarRef(lv))
			}
			toLegacy := func(v bdd.Var) bdd.Var {
				if int(v) < n {
					t.Fatalf("IR component uses legacy variable %q", m.VarName(v))
				}
				return v - bdd.Var(n)
			}
			assertComponentsMatch(t, m, want, got, toLegacy, rename.Compose)
		})
	}
}
