package fsm

import (
	"repro/internal/bdd"
)

// Relational-product implementations of PreImage/BackImage, using the
// conjunctively partitioned transition relation with early
// quantification, as an alternative to the functional-composition route.
// For machines with wide datapaths the composition route can explode in
// intermediate sizes; conjoining the per-bit relations one at a time and
// quantifying next-state/input variables as soon as they fall out of use
// is usually far better behaved. PreImage selects between the two
// automatically (see Machine.PreImage).

// preImageRel computes ∃ next, inp. C ∧ ∧_i T_i ∧ Z[cur → next].
func (ma *Machine) preImageRel(z bdd.Ref) bdd.Ref {
	m := ma.M
	acc := m.Rename(z, ma.cur, ma.next)
	acc = m.And(acc, ma.constraint)
	acc = m.Exists(acc, ma.preSeedQuant)
	for _, p := range ma.preTransition {
		acc = m.AndExists(acc, p.rel, p.quant)
		if acc == bdd.Zero {
			return bdd.Zero
		}
	}
	return acc
}

// PreImageWithin returns PreImage(z) ∧ ∧within for a list of
// current-state-variable sets, conjoining the within conjuncts into the
// relational product before quantification instead of intersecting
// afterwards. This is the PDR predecessor query — "a state of F_{i-1}
// with a successor in the blocked cube" — where constraining early
// keeps the intermediate products small. The within conjuncts must
// mention current-state variables only: they then commute with the
// ∃next,inp quantification, so the result equals the late
// intersection by canonicity (on either PreImageMode).
func (ma *Machine) PreImageWithin(z bdd.Ref, within []bdd.Ref) bdd.Ref {
	ma.mustBeSealed()
	m := ma.M
	if ma.PreImageMode == PreRelational {
		acc := m.Rename(z, ma.cur, ma.next)
		acc = m.And(acc, ma.constraint)
		for _, w := range within {
			acc = m.And(acc, w)
			if acc == bdd.Zero {
				return bdd.Zero
			}
		}
		acc = m.Exists(acc, ma.preSeedQuant)
		for _, p := range ma.preTransition {
			acc = m.AndExists(acc, p.rel, p.quant)
			if acc == bdd.Zero {
				return bdd.Zero
			}
		}
		return acc
	}
	acc := m.And(ma.constraint, ma.sub.Compose(z))
	for _, w := range within {
		acc = m.And(acc, w)
		if acc == bdd.Zero {
			return bdd.Zero
		}
	}
	return m.Exists(acc, ma.inputCube)
}

// buildPrePartition computes the early-quantification schedule for the
// backward direction: quantifiable variables are the next-state and
// input variables; current-state variables survive into the result. The
// seed of the chain is Z (renamed to next variables) conjoined with the
// input constraint.
func (ma *Machine) buildPrePartition() {
	m := ma.M
	lastUse := make(map[bdd.Var]int)
	for _, v := range ma.next {
		lastUse[v] = -1
	}
	for _, v := range ma.inputs {
		lastUse[v] = -1
	}
	for i, p := range ma.transition {
		for _, v := range m.Support(p.rel) {
			if _, ok := lastUse[v]; ok {
				lastUse[v] = i
			}
		}
	}
	ma.preTransition = make([]transPart, len(ma.transition))
	for i, p := range ma.transition {
		var cube []bdd.Var
		for v, last := range lastUse {
			if last == i {
				cube = append(cube, v)
			}
		}
		ma.preTransition[i] = transPart{rel: p.rel, quant: m.MkCube(cube)}
	}
	var seed []bdd.Var
	for v, last := range lastUse {
		if last == -1 {
			seed = append(seed, v)
		}
	}
	ma.preSeedQuant = m.MkCube(seed)
}
