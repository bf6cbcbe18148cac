package bdd

import (
	"math/rand"
	"testing"
)

// Truth-table test harness: for small variable counts we compare every
// BDD operation against an exhaustive model. A truth table over n
// variables is a uint64 whose bit i gives the function value on the
// assignment where variable j (= level j) has value (i>>j)&1.

// tableBits returns the number of meaningful bits in a table over n vars.
func tableBits(n int) uint { return 1 << uint(n) }

// tableMask masks a uint64 down to a valid n-variable table.
func tableMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << tableBits(n)) - 1
}

// truthToBDD builds the BDD of a truth table over variables 0..n-1.
func truthToBDD(m *Manager, n int, table uint64) Ref {
	// build consumes tables over variables v..n-1 where index bit k
	// corresponds to variable v+k.
	var build func(v int, tbl uint64) Ref
	build = func(v int, tbl uint64) Ref {
		if v == n {
			if tbl&1 == 1 {
				return One
			}
			return Zero
		}
		rem := n - v - 1
		var lo, hi uint64
		for i := 0; i < int(tableBits(rem)); i++ {
			if tbl&(1<<uint(2*i)) != 0 {
				lo |= 1 << uint(i)
			}
			if tbl&(1<<uint(2*i+1)) != 0 {
				hi |= 1 << uint(i)
			}
		}
		return m.mk(uint32(v), build(v+1, lo), build(v+1, hi))
	}
	return build(0, table&tableMask(n))
}

// bddToTruth evaluates f on every assignment of n variables.
func bddToTruth(m *Manager, f Ref, n int) uint64 {
	var out uint64
	a := make([]bool, m.NumVars())
	for i := 0; i < int(tableBits(n)); i++ {
		for j := 0; j < n; j++ {
			a[j] = (i>>uint(j))&1 == 1
		}
		if m.Eval(f, a) {
			out |= 1 << uint(i)
		}
	}
	return out
}

// newTestManager returns a Manager with n declared variables.
func newTestManager(t testing.TB, n int) *Manager {
	t.Helper()
	m := New()
	m.NewVars("x", n)
	return m
}

// checkInv fails the test if structural invariants are broken.
func checkInv(t testing.TB, m *Manager) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// randTables yields count random truth tables over n vars.
func randTables(rng *rand.Rand, n, count int) []uint64 {
	out := make([]uint64, count)
	for i := range out {
		out[i] = rng.Uint64() & tableMask(n)
	}
	return out
}

// Deterministic byte programs (see fuzzFormula) used to populate
// managers with moderately interesting functions.
var samplePrograms = [][]byte{
	{0, 8, 3, 16, 4},
	{0, 8, 4, 16, 5, 24, 3},
	{7, 15, 3, 0, 6, 32, 4},
	{1, 9, 17, 4, 4, 25, 5},
	{2, 10, 5, 18, 3, 26, 4, 34, 5},
	{0, 16, 5, 8, 6, 3},
	{33, 25, 4, 17, 3, 9, 5},
	{4, 12, 20, 3, 3, 28, 4},
}

// mirrorVars returns a fresh Manager declaring m's current variables
// (same names, same order), the usual destination of a Transfer.
func mirrorVars(m *Manager) *Manager {
	w := New()
	for v := 0; v < m.NumVars(); v++ {
		w.NewVar(m.VarName(Var(v)))
	}
	return w
}
