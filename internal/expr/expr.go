// Package expr provides word-level (bit-vector) construction on top of
// BDDs: adders, comparators, multiplexers, shifters, and population
// counts. It plays the role of the Ever verifier's higher-level
// specification constructs (ref [18] of the paper): models are written in
// terms of words and the package lowers them to per-bit Boolean
// functions.
//
// A Word is little-endian: Bits[0] is the least significant bit. All
// binary operations require equal widths — widening is explicit via
// Extend, which keeps width bookkeeping visible in model code.
//
// No production path imports this package: every model is built
// through internal/ir, whose Word mirrors these operations. It stays as
// the independent reference that the pre-IR constructors in
// internal/models/legacy_test.go are written in, so the crosscheck
// suite can require the IR builds to be Ref-identical to them.
package expr

import (
	"fmt"

	"repro/internal/bdd"
)

// Word is a vector of Boolean functions denoting an unsigned integer,
// least-significant bit first.
type Word struct {
	M    *bdd.Manager
	Bits []bdd.Ref
}

// FromVars builds a word whose bits are the given variables (LSB first).
func FromVars(m *bdd.Manager, vars []bdd.Var) Word {
	bits := make([]bdd.Ref, len(vars))
	for i, v := range vars {
		bits[i] = m.VarRef(v)
	}
	return Word{M: m, Bits: bits}
}

// Const builds a width-bit constant word. It panics if the value does not
// fit, which in model-building code is always a bug worth failing fast on.
func Const(m *bdd.Manager, value uint64, width int) Word {
	if width < 64 && value>>uint(width) != 0 {
		panic(fmt.Sprintf("expr: constant %d does not fit in %d bits", value, width))
	}
	bits := make([]bdd.Ref, width)
	for i := range bits {
		if value&(1<<uint(i)) != 0 {
			bits[i] = bdd.One
		} else {
			bits[i] = bdd.Zero
		}
	}
	return Word{M: m, Bits: bits}
}

// Width returns the number of bits.
func (w Word) Width() int { return len(w.Bits) }

// Bit returns the i-th bit (LSB = 0).
func (w Word) Bit(i int) bdd.Ref { return w.Bits[i] }

// Value evaluates the word under a total assignment.
func (w Word) Value(assignment []bool) uint64 {
	var out uint64
	for i, b := range w.Bits {
		if w.M.Eval(b, assignment) {
			out |= 1 << uint(i)
		}
	}
	return out
}

// Extend zero-extends the word to the given width (identity if already
// that wide; panics on narrowing — use Truncate).
func (w Word) Extend(width int) Word {
	if width < w.Width() {
		panic("expr: Extend cannot narrow; use Truncate")
	}
	bits := append([]bdd.Ref(nil), w.Bits...)
	for len(bits) < width {
		bits = append(bits, bdd.Zero)
	}
	return Word{M: w.M, Bits: bits}
}

// Truncate keeps the low width bits.
func (w Word) Truncate(width int) Word {
	if width > w.Width() {
		panic("expr: Truncate cannot widen; use Extend")
	}
	return Word{M: w.M, Bits: append([]bdd.Ref(nil), w.Bits[:width]...)}
}

// Concat appends hi above w (w stays the low part).
func (w Word) Concat(hi Word) Word {
	bits := append([]bdd.Ref(nil), w.Bits...)
	bits = append(bits, hi.Bits...)
	return Word{M: w.M, Bits: bits}
}

func (w Word) sameWidth(o Word, op string) {
	if w.Width() != o.Width() {
		panic(fmt.Sprintf("expr: %s of %d-bit and %d-bit words", op, w.Width(), o.Width()))
	}
}

// AddCarry returns the width-preserving sum of a, b and the carry-in,
// plus the carry-out — a ripple-carry adder.
func AddCarry(a, b Word, cin bdd.Ref) (Word, bdd.Ref) {
	a.sameWidth(b, "AddCarry")
	m := a.M
	bits := make([]bdd.Ref, a.Width())
	carry := cin
	for i := range bits {
		x, y := a.Bits[i], b.Bits[i]
		bits[i] = m.Xor(m.Xor(x, y), carry)
		carry = m.Or(m.And(x, y), m.And(carry, m.Or(x, y)))
	}
	return Word{M: m, Bits: bits}, carry
}

// Add returns a + b modulo 2^width.
func Add(a, b Word) Word {
	s, _ := AddCarry(a, b, bdd.Zero)
	return s
}

// AddExpand returns a + b at full precision (width+1 bits).
func AddExpand(a, b Word) Word {
	s, cout := AddCarry(a, b, bdd.Zero)
	s.Bits = append(s.Bits, cout)
	return s
}

// Sub returns a - b modulo 2^width (two's complement).
func Sub(a, b Word) Word {
	a.sameWidth(b, "Sub")
	m := a.M
	nb := make([]bdd.Ref, b.Width())
	for i, bit := range b.Bits {
		nb[i] = bit.Not()
	}
	s, _ := AddCarry(a, Word{M: m, Bits: nb}, bdd.One)
	return s
}

// Inc returns a + 1 modulo 2^width.
func Inc(a Word) Word { return Add(a, Const(a.M, 1, a.Width())) }

// Dec returns a - 1 modulo 2^width.
func Dec(a Word) Word { return Sub(a, Const(a.M, 1, a.Width())) }

// Eq returns the predicate a == b.
func Eq(a, b Word) bdd.Ref {
	a.sameWidth(b, "Eq")
	m := a.M
	acc := bdd.One
	for i := range a.Bits {
		acc = m.And(acc, m.Xnor(a.Bits[i], b.Bits[i]))
		if acc == bdd.Zero {
			break
		}
	}
	return acc
}

// EqList returns the per-bit equality predicates of a and b — the natural
// implicit-conjunction partition of a word equality.
func EqList(a, b Word) []bdd.Ref {
	a.sameWidth(b, "EqList")
	m := a.M
	out := make([]bdd.Ref, a.Width())
	for i := range a.Bits {
		out[i] = m.Xnor(a.Bits[i], b.Bits[i])
	}
	return out
}

// Ne returns the predicate a != b.
func Ne(a, b Word) bdd.Ref { return Eq(a, b).Not() }

// EqConst returns the predicate a == value.
func EqConst(a Word, value uint64) bdd.Ref {
	return Eq(a, Const(a.M, value, a.Width()))
}

// Lt returns the unsigned predicate a < b.
func Lt(a, b Word) bdd.Ref {
	a.sameWidth(b, "Lt")
	m := a.M
	lt := bdd.Zero
	for i := 0; i < a.Width(); i++ { // LSB to MSB: higher bits dominate
		x, y := a.Bits[i], b.Bits[i]
		lt = m.ITE(m.Xnor(x, y), lt, y)
	}
	return lt
}

// Le returns the unsigned predicate a <= b.
func Le(a, b Word) bdd.Ref { return Lt(b, a).Not() }

// Gt returns the unsigned predicate a > b.
func Gt(a, b Word) bdd.Ref { return Lt(b, a) }

// Ge returns the unsigned predicate a >= b.
func Ge(a, b Word) bdd.Ref { return Lt(a, b).Not() }

// LeConst returns the predicate a <= value.
func LeConst(a Word, value uint64) bdd.Ref {
	return Le(a, Const(a.M, value, a.Width()))
}

// Mux returns sel ? a : b, bitwise.
func Mux(sel bdd.Ref, a, b Word) Word {
	a.sameWidth(b, "Mux")
	m := a.M
	bits := make([]bdd.Ref, a.Width())
	for i := range bits {
		bits[i] = m.ITE(sel, a.Bits[i], b.Bits[i])
	}
	return Word{M: m, Bits: bits}
}

// Shr returns a logically shifted right by k bits (zero fill).
func Shr(a Word, k int) Word {
	m := a.M
	bits := make([]bdd.Ref, a.Width())
	for i := range bits {
		if i+k < a.Width() {
			bits[i] = a.Bits[i+k]
		} else {
			bits[i] = bdd.Zero
		}
	}
	return Word{M: m, Bits: bits}
}

// Shl returns a shifted left by k bits (zero fill), modulo 2^width.
func Shl(a Word, k int) Word {
	m := a.M
	bits := make([]bdd.Ref, a.Width())
	for i := range bits {
		if i-k >= 0 {
			bits[i] = a.Bits[i-k]
		} else {
			bits[i] = bdd.Zero
		}
	}
	return Word{M: m, Bits: bits}
}

// PopCount returns the number of true predicates among flags, as a word
// of just enough bits to hold len(flags).
func PopCount(m *bdd.Manager, flags []bdd.Ref) Word {
	width := 1
	for (1<<uint(width))-1 < len(flags) {
		width++
	}
	acc := Const(m, 0, width)
	for _, f := range flags {
		one := Word{M: m, Bits: make([]bdd.Ref, width)}
		one.Bits[0] = f
		for i := 1; i < width; i++ {
			one.Bits[i] = bdd.Zero
		}
		acc = Add(acc, one)
	}
	return acc
}
