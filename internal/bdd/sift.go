package bdd

// Static variable-order search. Classic BDD packages reorder
// destructively (in-place sifting); this package instead searches over
// static orders by transferring the functions of interest into scratch
// managers — simpler, obviously correct, and sufficient for the
// model-construction workflow where the order is chosen once. The search
// is Rudell-style greedy sifting: move each variable to its locally best
// position, repeat until a round yields no improvement.

// SiftOrder searches for a variable order minimizing the shared size of
// the given roots. It returns a varMap suitable for Transfer (varMap[v]
// is the new position of source variable v) and the achieved shared
// size. maxRounds bounds the outer loop (0 means run to convergence).
//
// Cost: each candidate position costs one Transfer of all roots, so a
// round is O(n²) transfers. Intended for models with tens of variables,
// or for offline order exploration.
func SiftOrder(src *Manager, roots []Ref, maxRounds int) ([]Var, int) {
	n := src.NumVars()
	order := make([]Var, n) // order[pos] = source variable at that position
	for i := range order {
		order[i] = Var(i)
	}

	best := evalOrder(src, roots, order)
	if maxRounds <= 0 {
		maxRounds = n // sifting converges long before this in practice
	}

	for round := 0; round < maxRounds; round++ {
		improved := false
		for v := 0; v < n; v++ {
			cur := positionOf(order, Var(v))
			bestPos, bestSize := cur, best
			for pos := 0; pos < n; pos++ {
				if pos == cur {
					continue
				}
				cand := moveVar(order, cur, pos)
				if size := evalOrder(src, roots, cand); size < bestSize {
					bestPos, bestSize = pos, size
				}
			}
			if bestPos != cur {
				order = moveVar(order, cur, bestPos)
				best = bestSize
				improved = true
			}
		}
		if !improved {
			break
		}
	}

	varMap := make([]Var, n)
	for pos, v := range order {
		varMap[v] = Var(pos)
	}
	return varMap, best
}

// EvalOrder reports the shared size of the roots under the order given
// as a varMap (varMap[v] = position of source variable v). Exposed for
// hand-rolled order experiments.
func EvalOrder(src *Manager, roots []Ref, varMap []Var) int {
	scratch := New()
	scratch.NewVars("o", src.NumVars())
	out := TransferAll(scratch, src, roots, varMap)
	return scratch.SharedSize(out...)
}

func evalOrder(src *Manager, roots []Ref, order []Var) int {
	n := len(order)
	varMap := make([]Var, n)
	for pos, v := range order {
		varMap[v] = Var(pos)
	}
	return EvalOrder(src, roots, varMap)
}

func positionOf(order []Var, v Var) int {
	for i, o := range order {
		if o == v {
			return i
		}
	}
	panic("bdd: variable missing from order")
}

// moveVar returns a copy of order with the variable at position from
// moved to position to, shifting the variables in between.
func moveVar(order []Var, from, to int) []Var {
	out := make([]Var, 0, len(order))
	v := order[from]
	rest := append(append([]Var(nil), order[:from]...), order[from+1:]...)
	out = append(out, rest[:to]...)
	out = append(out, v)
	out = append(out, rest[to:]...)
	return out
}
