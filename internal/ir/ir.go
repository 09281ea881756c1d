// Package ir defines the compiler's intermediate representation: programs
// over fixed-point scalar and array variables, with assignments and
// counted loops.
//
// RECORD's code selection operates on expression trees (ETs) in basic
// blocks (paper section 3.1): unary/binary trees whose inner nodes are
// operators and whose leaves are program variables, inputs or constants,
// each tree evaluated into an explicit destination.  Flatten lowers a
// program to that form by unrolling counted loops (substituting the
// induction variable) and folding constants, producing a straight-line
// list of assignments.  Interp executes that list with the same
// fixed-point semantics as the hardware (rtl.EvalBin), serving as the
// end-to-end oracle against the netlist simulator.
package ir

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rtl"
)

// Program is a RecC compilation unit.
type Program struct {
	Decls []*Decl
	Body  []Stmt
}

// Decl declares a scalar (Size 0) or array variable, optionally with
// initial values.
type Decl struct {
	Name string
	Size int // 0 for scalars; else element count
	Init []int64
}

// IsArray reports whether the declaration is an array.
func (d *Decl) IsArray() bool { return d.Size > 0 }

// Cells returns the number of memory cells the variable occupies.
func (d *Decl) Cells() int {
	if d.Size == 0 {
		return 1
	}
	return d.Size
}

// Stmt is a program statement.
type Stmt interface {
	stmt()
	String() string
}

// Assign is "lhs = rhs;".
type Assign struct {
	LHS *Ref
	RHS Expr
}

// For is a counted loop "for (v = From; v < To; v = v + Step) { Body }".
// Bounds must fold to constants for Flatten to unroll the loop.
type For struct {
	Var      string
	From, To Expr
	Step     Expr
	Body     []Stmt
}

func (*Assign) stmt() {}
func (*For) stmt()    {}

// String renders "lhs = rhs;".  Every statement's listing comment is
// rendered through it, so it builds the line in one stack buffer and
// copies it out once, at its exact size.
func (a *Assign) String() string {
	var buf [128]byte
	b := appendExpr(buf[:0], a.LHS)
	b = append(b, " = "...)
	b = appendExpr(b, a.RHS)
	return string(append(b, ';'))
}

func (f *For) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "for (%s = %s; %s < %s; %s = %s + %s) { ",
		f.Var, f.From, f.Var, f.To, f.Var, f.Var, f.Step)
	for _, s := range f.Body {
		b.WriteString(s.String())
		b.WriteByte(' ')
	}
	b.WriteString("}")
	return b.String()
}

// Expr is an IR expression.
type Expr interface {
	expr()
	String() string
}

// Const is an integer literal.
type Const struct{ Val int64 }

// Ref references a scalar variable (Index nil) or array element.
type Ref struct {
	Name  string
	Index Expr
}

// Bin applies a binary operator.
type Bin struct {
	Op   rtl.Op
	X, Y Expr
}

// Un applies a unary operator.
type Un struct {
	Op rtl.Op
	X  Expr
}

func (*Const) expr() {}
func (*Ref) expr()   {}
func (*Bin) expr()   {}
func (*Un) expr()    {}

func (c *Const) String() string { return exprString(c) }
func (r *Ref) String() string   { return exprString(r) }
func (b *Bin) String() string   { return exprString(b) }
func (u *Un) String() string    { return exprString(u) }

func exprString(e Expr) string {
	var buf [64]byte
	return string(appendExpr(buf[:0], e))
}

// appendExpr appends e's rendering to b: constants in decimal, "name" or
// "name[index]", "(x op y)", and "-(x)" or "op(x)" for unary operators.
func appendExpr(b []byte, e Expr) []byte {
	switch x := e.(type) {
	case *Const:
		return strconv.AppendInt(b, x.Val, 10)
	case *Ref:
		b = append(b, x.Name...)
		if x.Index != nil {
			b = append(appendExpr(append(b, '['), x.Index), ']')
		}
		return b
	case *Bin:
		b = appendExpr(append(b, '('), x.X)
		b = append(append(append(b, ' '), x.Op...), ' ')
		return append(appendExpr(b, x.Y), ')')
	case *Un:
		if x.Op == rtl.OpNeg {
			b = append(b, '-')
		} else {
			b = append(b, x.Op...)
		}
		return append(appendExpr(append(b, '('), x.X), ')')
	}
	return fmt.Appendf(b, "%s", e) // nil renders as fmt renders it
}

// subst returns e with every reference to name replaced by val, folding
// constants as it goes.
func subst(e Expr, name string, val int64) Expr {
	switch x := e.(type) {
	case *Const:
		return x
	case *Ref:
		if x.Name == name && x.Index == nil {
			return &Const{Val: val}
		}
		if x.Index != nil {
			return &Ref{Name: x.Name, Index: subst(x.Index, name, val)}
		}
		return x
	case *Bin:
		return fold(&Bin{Op: x.Op, X: subst(x.X, name, val), Y: subst(x.Y, name, val)})
	case *Un:
		return fold(&Un{Op: x.Op, X: subst(x.X, name, val)})
	}
	return e
}

// fold performs constant folding at 64-bit precision (final wrapping
// happens at code generation / interpretation width).
func fold(e Expr) Expr {
	switch x := e.(type) {
	case *Bin:
		cx, okx := x.X.(*Const)
		cy, oky := x.Y.(*Const)
		if okx && oky {
			return &Const{Val: rtl.EvalBin(x.Op, cx.Val, cy.Val, 64)}
		}
	case *Un:
		if c, ok := x.X.(*Const); ok {
			return &Const{Val: rtl.EvalUn(x.Op, c.Val, 64)}
		}
	}
	return e
}

// Fold exposes constant folding for frontends.
func Fold(e Expr) Expr { return fold(e) }

// constVal extracts a constant value from a (folded) expression.
func constVal(e Expr) (int64, bool) {
	c, ok := fold(e).(*Const)
	if !ok {
		return 0, false
	}
	return c.Val, true
}

// MaxUnroll bounds loop unrolling.
const MaxUnroll = 4096

// Flatten lowers the program body to a straight-line list of assignments:
// counted loops are unrolled with their induction variable substituted per
// iteration, and constants folded.
func Flatten(p *Program) ([]*Assign, error) {
	var out []*Assign
	err := flattenStmts(p.Body, nil, &out)
	return out, err
}

type binding struct {
	name string
	val  int64
}

func flattenStmts(stmts []Stmt, env []binding, out *[]*Assign) error {
	for _, s := range stmts {
		switch st := s.(type) {
		case *Assign:
			lhs := &Ref{Name: st.LHS.Name, Index: st.LHS.Index}
			rhs := st.RHS
			for _, b := range env {
				if lhs.Index != nil {
					lhs = &Ref{Name: lhs.Name, Index: subst(lhs.Index, b.name, b.val)}
				}
				rhs = subst(rhs, b.name, b.val)
			}
			*out = append(*out, &Assign{LHS: lhs, RHS: fold(rhs)})
		case *For:
			from, to, step := st.From, st.To, st.Step
			for _, b := range env {
				from = subst(from, b.name, b.val)
				to = subst(to, b.name, b.val)
				step = subst(step, b.name, b.val)
			}
			f, ok1 := constVal(from)
			t, ok2 := constVal(to)
			inc, ok3 := constVal(step)
			if !ok1 || !ok2 || !ok3 {
				return fmt.Errorf("ir: loop over %s has non-constant bounds (%s; %s; %s)",
					st.Var, from, to, step)
			}
			if inc <= 0 {
				return fmt.Errorf("ir: loop over %s has non-positive step %d", st.Var, inc)
			}
			if (t-f+inc-1)/inc > MaxUnroll {
				return fmt.Errorf("ir: loop over %s unrolls to more than %d iterations", st.Var, MaxUnroll)
			}
			for i := f; i < t; i += inc {
				if err := flattenStmts(st.Body, append(env, binding{st.Var, i}), out); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("ir: unknown statement %T", s)
		}
	}
	return nil
}

// Env is a variable store for interpretation: one slice per declaration.
type Env map[string][]int64

// NewEnv builds the initial environment from declarations (missing initial
// values are zero).
func NewEnv(p *Program, width int) Env {
	env := make(Env)
	for _, d := range p.Decls {
		cells := make([]int64, d.Cells())
		for i, v := range d.Init {
			if i < len(cells) {
				cells[i] = rtl.Wrap(v, width)
			}
		}
		env[d.Name] = cells
	}
	return env
}

// Mismatch compares got, the values a compiled program left on the
// hardware, with want, the oracle's, cell by cell over decls, and
// describes the first difference.
func Mismatch(decls []*Decl, got, want Env) error {
	for _, d := range decls {
		for i := range want[d.Name] {
			if got[d.Name][i] != want[d.Name][i] {
				return fmt.Errorf("%s[%d] = %d on hardware, %d per oracle",
					d.Name, i, got[d.Name][i], want[d.Name][i])
			}
		}
	}
	return nil
}

// Interp executes a flattened assignment list at the given word width,
// mutating env.  Out-of-range indices and unknown variables are errors.
func Interp(assigns []*Assign, env Env, width int) error {
	for _, a := range assigns {
		v, err := evalExpr(a.RHS, env, width)
		if err != nil {
			return err
		}
		cells, ok := env[a.LHS.Name]
		if !ok {
			return fmt.Errorf("ir: assignment to undeclared %s", a.LHS.Name)
		}
		idx := int64(0)
		if a.LHS.Index != nil {
			idx, err = evalExpr(a.LHS.Index, env, width)
			if err != nil {
				return err
			}
		}
		if idx < 0 || idx >= int64(len(cells)) {
			return fmt.Errorf("ir: index %d out of range for %s[%d]", idx, a.LHS.Name, len(cells))
		}
		cells[idx] = v
	}
	return nil
}

func evalExpr(e Expr, env Env, width int) (int64, error) {
	switch x := e.(type) {
	case *Const:
		return rtl.Wrap(x.Val, width), nil
	case *Ref:
		cells, ok := env[x.Name]
		if !ok {
			return 0, fmt.Errorf("ir: undeclared variable %s", x.Name)
		}
		idx := int64(0)
		if x.Index != nil {
			var err error
			idx, err = evalExpr(x.Index, env, width)
			if err != nil {
				return 0, err
			}
		}
		if idx < 0 || idx >= int64(len(cells)) {
			return 0, fmt.Errorf("ir: index %d out of range for %s[%d]", idx, x.Name, len(cells))
		}
		return cells[idx], nil
	case *Bin:
		a, err := evalExpr(x.X, env, width)
		if err != nil {
			return 0, err
		}
		b, err := evalExpr(x.Y, env, width)
		if err != nil {
			return 0, err
		}
		return rtl.EvalBin(x.Op, a, b, width), nil
	case *Un:
		a, err := evalExpr(x.X, env, width)
		if err != nil {
			return 0, err
		}
		return rtl.EvalUn(x.Op, a, width), nil
	}
	return 0, fmt.Errorf("ir: unknown expression %T", e)
}

// Run flattens and interprets a program in one step, returning the final
// environment.
func Run(p *Program, width int) (Env, error) {
	assigns, err := Flatten(p)
	if err != nil {
		return nil, err
	}
	env := NewEnv(p, width)
	if err := Interp(assigns, env, width); err != nil {
		return nil, err
	}
	return env, nil
}
