package ir

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/fsm"
	"repro/internal/verify"
)

// Instantiate elaborates the model on the given manager: it declares
// the variables in declaration order, evaluates the expression DAG
// (memoized per node, so shared subgraphs are built once), assembles
// the machine, and seals it. It is the single place any frontend turns
// IR into BDDs, and the result is a function of the declaration order
// alone, by BDD canonicity.
//
// Replicated next-state functions — state bits whose DAGs are
// isomorphic up to variable renaming, the signature of the zoo's
// parameterized families — are built once per isomorphism class on a
// scratch manager and stamped out with bdd.Transfer (see iso.go). The
// pass is transparent: by canonicity every Ref equals what direct
// evaluation would build.
func (mo *Model) Instantiate(m *bdd.Manager) (verify.Problem, error) {
	return mo.instantiate(m, true)
}

// InstantiateNoIso elaborates without the isomorphism-exploiting
// template pass — the baseline every iso test and ablation compares
// against. Results are Ref-identical to Instantiate; only construction
// effort differs.
func (mo *Model) InstantiateNoIso(m *bdd.Manager) (verify.Problem, error) {
	return mo.instantiate(m, false)
}

func (mo *Model) instantiate(m *bdd.Manager, useIso bool) (verify.Problem, error) {
	if err := mo.Validate(); err != nil {
		return verify.Problem{}, err
	}

	ma := fsm.New(m)
	vars := map[string]bdd.Var{}
	var states []*State
	for _, d := range mo.Decls {
		switch d := d.(type) {
		case *Input:
			for _, n := range d.Names {
				vars[n] = ma.NewInputBit(n)
			}
		case *State:
			vars[d.Name] = ma.NewStateBit(d.Name)
			states = append(states, d)
		}
	}

	memo := map[*Node]bdd.Ref{}
	if useIso {
		seedIsoMemo(m, states, vars, memo)
	}
	var eval func(n *Node) bdd.Ref
	eval = func(n *Node) bdd.Ref {
		if r, ok := memo[n]; ok {
			return r
		}
		var r bdd.Ref
		switch n.Op {
		case OpTrue:
			r = bdd.One
		case OpFalse:
			r = bdd.Zero
		case OpVar:
			r = m.VarRef(vars[n.Name])
		case OpNot:
			r = eval(n.Args[0]).Not()
		case OpAnd:
			args := make([]bdd.Ref, len(n.Args))
			for i, a := range n.Args {
				args[i] = eval(a)
			}
			r = m.AndN(args...)
		case OpOr:
			args := make([]bdd.Ref, len(n.Args))
			for i, a := range n.Args {
				args[i] = eval(a)
			}
			r = m.OrN(args...)
		case OpXor:
			r = m.Xor(eval(n.Args[0]), eval(n.Args[1]))
		case OpXnor:
			r = m.Xnor(eval(n.Args[0]), eval(n.Args[1]))
		case OpImp:
			r = m.Imp(eval(n.Args[0]), eval(n.Args[1]))
		case OpNand:
			r = m.Nand(eval(n.Args[0]), eval(n.Args[1]))
		case OpNor:
			r = m.Nor(eval(n.Args[0]), eval(n.Args[1]))
		case OpITE:
			r = m.ITE(eval(n.Args[0]), eval(n.Args[1]), eval(n.Args[2]))
		default:
			panic(fmt.Sprintf("ir: unreachable operator %q past Validate", n.Op))
		}
		memo[n] = r
		return r
	}

	initSet := bdd.One
	for _, s := range states {
		ma.SetNext(vars[s.Name], eval(s.Next))
		lit := m.VarRef(vars[s.Name])
		if !s.Init {
			lit = lit.Not()
		}
		initSet = m.And(initSet, lit)
	}
	ma.SetInit(initSet)

	var goodList []bdd.Ref
	var deps []verify.Dependency
	goal := bdd.One
	for _, d := range mo.Decls {
		switch d := d.(type) {
		case *Constraint:
			ma.AddInputConstraint(eval(d.Expr))
		case *Good:
			goodList = append(goodList, eval(d.Expr))
		case *Goal:
			goal = eval(d.Expr)
		case *Dep:
			deps = append(deps, verify.Dependency{Var: vars[d.Name], Def: eval(d.Def)})
		}
	}
	if err := ma.Seal(); err != nil {
		return verify.Problem{}, err
	}
	return verify.Problem{
		Machine:  ma,
		Good:     goal,
		GoodList: goodList,
		Deps:     deps,
		Name:     mo.Name,
	}, nil
}

// MustInstantiate is Instantiate for callers that treat failure as a
// bug — the legacy New* constructor shims.
func (mo *Model) MustInstantiate(m *bdd.Manager) verify.Problem {
	p, err := mo.Instantiate(m)
	if err != nil {
		panic(err)
	}
	return p
}
