// Package bitvec provides word-level symbolic arithmetic over vectors of
// BDDs ("bit-blasting").
//
// During control-signal analysis, RECORD traces module control ports back
// through arbitrary random logic (instruction decoders) to the primary
// control sources — instruction-word bits and mode-register bits.  The
// decoder behavior is an RT-level expression over multi-bit ports, so we
// need to evaluate such expressions symbolically: each wire becomes a
// vector of BDDs, one per bit, and predicates like "selector == 3" become
// single BDDs over instruction bits.  This package implements the required
// vector operators: ripple-carry add/sub, bitwise logic, shifts by constant
// amounts, comparisons, multiplexing, slicing and concatenation.
//
// Vectors are little-endian: index 0 is the least significant bit.
package bitvec

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/faultpoint"
)

// InvariantError is the panic value used for caller-contract violations
// (out-of-range slices, width mismatches, negative shifts).  These panics
// are invariant-only: width agreement is established by the HDL semantic
// checker and netlist elaboration before any symbolic evaluation starts, so
// they signal a pipeline bug, not bad user input.  They are therefore kept
// as panics rather than threaded-through errors; every pipeline phase runs
// under a diag.Capture recovery boundary that converts them into Error
// diagnostics instead of driver crashes (see internal/diag and the boundary
// tests in this package's test file).
type InvariantError string

func (e InvariantError) Error() string { return string(e) }

func invariantf(format string, args ...interface{}) InvariantError {
	return InvariantError(fmt.Sprintf(format, args...))
}

// Vec is a fixed-width symbolic word; element i is bit i (LSB first).
type Vec []bdd.Node

// Width returns the number of bits in v.
func (v Vec) Width() int { return len(v) }

// Const builds a w-bit vector holding the constant value (truncated to w
// bits, two's-complement wraparound for negative values).
func Const(m *bdd.Manager, value int64, w int) Vec {
	v := make(Vec, w)
	for i := 0; i < w; i++ {
		if value&(1<<uint(i)) != 0 {
			v[i] = m.True()
		} else {
			v[i] = m.False()
		}
	}
	return v
}

// Vars builds a w-bit vector of fresh/declared variables named
// prefix0..prefix{w-1}.
func Vars(m *bdd.Manager, prefix string, w int) Vec {
	v := make(Vec, w)
	for i := 0; i < w; i++ {
		v[i] = m.Var(m.DeclareVar(fmt.Sprintf("%s%d", prefix, i)))
	}
	return v
}

// Slice returns bits lo..hi inclusive of v (hi >= lo).
func Slice(v Vec, hi, lo int) Vec {
	if err := faultpoint.Hit("bitvec.slice", ""); err != nil {
		panic(err) // vector ops cannot return errors; the phase boundary recovers.
	}
	if lo < 0 || hi >= len(v) || hi < lo {
		panic(invariantf("bitvec: bad slice [%d:%d] of width %d", hi, lo, len(v)))
	}
	out := make(Vec, hi-lo+1)
	copy(out, v[lo:hi+1])
	return out
}

func sameWidth(a, b Vec) {
	if len(a) != len(b) {
		panic(invariantf("bitvec: width mismatch %d vs %d", len(a), len(b)))
	}
}

// Not returns the bitwise complement.
func Not(m *bdd.Manager, a Vec) Vec {
	r := make(Vec, len(a))
	for i := range a {
		r[i] = m.Not(a[i])
	}
	return r
}

// And returns the bitwise conjunction.
func And(m *bdd.Manager, a, b Vec) Vec {
	sameWidth(a, b)
	r := make(Vec, len(a))
	for i := range a {
		r[i] = m.And(a[i], b[i])
	}
	return r
}

// Or returns the bitwise disjunction.
func Or(m *bdd.Manager, a, b Vec) Vec {
	sameWidth(a, b)
	r := make(Vec, len(a))
	for i := range a {
		r[i] = m.Or(a[i], b[i])
	}
	return r
}

// Xor returns the bitwise exclusive-or.
func Xor(m *bdd.Manager, a, b Vec) Vec {
	sameWidth(a, b)
	r := make(Vec, len(a))
	for i := range a {
		r[i] = m.Xor(a[i], b[i])
	}
	return r
}

// Add returns a+b modulo 2^w (ripple-carry).
func Add(m *bdd.Manager, a, b Vec) Vec {
	sameWidth(a, b)
	r := make(Vec, len(a))
	carry := m.False()
	for i := range a {
		s := m.Xor(m.Xor(a[i], b[i]), carry)
		carry = m.Or(m.And(a[i], b[i]), m.And(carry, m.Xor(a[i], b[i])))
		r[i] = s
	}
	return r
}

// Sub returns a-b modulo 2^w (two's complement: a + ~b + 1).
func Sub(m *bdd.Manager, a, b Vec) Vec {
	sameWidth(a, b)
	r := make(Vec, len(a))
	carry := m.True()
	for i := range a {
		nb := m.Not(b[i])
		s := m.Xor(m.Xor(a[i], nb), carry)
		carry = m.Or(m.And(a[i], nb), m.And(carry, m.Xor(a[i], nb)))
		r[i] = s
	}
	return r
}

// Neg returns the two's-complement negation of a.
func Neg(m *bdd.Manager, a Vec) Vec {
	return Sub(m, Const(m, 0, len(a)), a)
}

// Mul returns a*b modulo 2^w via shift-and-add.  Widths must match; the
// result has the same width.  Intended for small decoder-level words.
func Mul(m *bdd.Manager, a, b Vec) Vec {
	sameWidth(a, b)
	w := len(a)
	acc := Const(m, 0, w)
	for i := 0; i < w; i++ {
		// partial = (a << i) masked by b[i]
		part := make(Vec, w)
		for j := 0; j < w; j++ {
			if j < i {
				part[j] = m.False()
			} else {
				part[j] = m.And(a[j-i], b[i])
			}
		}
		acc = Add(m, acc, part)
	}
	return acc
}

// ShlConst shifts left by constant k, filling with zero bits.
func ShlConst(m *bdd.Manager, a Vec, k int) Vec {
	if k < 0 {
		panic(InvariantError("bitvec: negative shift"))
	}
	r := make(Vec, len(a))
	for i := range r {
		if i < k {
			r[i] = m.False()
		} else {
			r[i] = a[i-k]
		}
	}
	return r
}

// ShrConst shifts right (logical) by constant k.
func ShrConst(m *bdd.Manager, a Vec, k int) Vec {
	if k < 0 {
		panic(InvariantError("bitvec: negative shift"))
	}
	r := make(Vec, len(a))
	for i := range r {
		if i+k < len(a) {
			r[i] = a[i+k]
		} else {
			r[i] = m.False()
		}
	}
	return r
}

// AshrConst shifts right arithmetically by constant k.
func AshrConst(m *bdd.Manager, a Vec, k int) Vec {
	if k < 0 {
		panic(InvariantError("bitvec: negative shift"))
	}
	if len(a) == 0 {
		return a
	}
	sign := a[len(a)-1]
	r := make(Vec, len(a))
	for i := range r {
		if i+k < len(a) {
			r[i] = a[i+k]
		} else {
			r[i] = sign
		}
	}
	return r
}

// Eq returns the single-bit predicate a == b.
func Eq(m *bdd.Manager, a, b Vec) bdd.Node {
	sameWidth(a, b)
	r := m.True()
	for i := range a {
		r = m.And(r, m.Xnor(a[i], b[i]))
		if r == m.False() {
			break
		}
	}
	return r
}

// EqConst returns the predicate a == value.
func EqConst(m *bdd.Manager, a Vec, value int64) bdd.Node {
	return Eq(m, a, Const(m, value, len(a)))
}

// Ult returns the unsigned predicate a < b.
func Ult(m *bdd.Manager, a, b Vec) bdd.Node {
	sameWidth(a, b)
	lt := m.False()
	for i := 0; i < len(a); i++ { // from LSB to MSB, MSB dominates
		bitLt := m.And(m.Not(a[i]), b[i])
		eq := m.Xnor(a[i], b[i])
		lt = m.Or(bitLt, m.And(eq, lt))
	}
	return lt
}

// Mux returns sel ? a : b, bitwise.
func Mux(m *bdd.Manager, sel bdd.Node, a, b Vec) Vec {
	sameWidth(a, b)
	r := make(Vec, len(a))
	for i := range a {
		r[i] = m.Ite(sel, a[i], b[i])
	}
	return r
}

// IsZero returns the predicate a == 0.
func IsZero(m *bdd.Manager, a Vec) bdd.Node {
	r := m.True()
	for i := range a {
		r = m.And(r, m.Not(a[i]))
	}
	return r
}

// Bool converts a 1-bit-style condition BDD into a width-1 vector.
func Bool(b bdd.Node) Vec { return Vec{b} }

// Truth returns the low bit of v as a condition, treating any wider vector
// like hardware does when a word drives a 1-bit control port: bit 0 is used.
func Truth(m *bdd.Manager, v Vec) bdd.Node {
	if len(v) == 0 {
		return m.False()
	}
	return v[0]
}

// IsConst reports whether every bit of v is a constant, returning the value.
func IsConst(m *bdd.Manager, v Vec) (value int64, ok bool) {
	for i, b := range v {
		switch b {
		case m.True():
			if i < 63 {
				value |= 1 << uint(i)
			}
		case m.False():
			// zero bit
		default:
			return 0, false
		}
	}
	return value, true
}

// Eval evaluates v under a variable assignment, returning the word value.
func Eval(m *bdd.Manager, v Vec, assign map[int]bool) int64 {
	var out int64
	for i, b := range v {
		if m.Eval(b, assign) && i < 63 {
			out |= 1 << uint(i)
		}
	}
	return out
}
