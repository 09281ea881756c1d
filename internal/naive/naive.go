// Package naive implements the baseline "vendor compiler" used as the
// left bar of the paper's figure 2: a classic macro-expansion code
// generator.  It lowers every expression into three-address form — one
// temporary memory variable per operation, no tree covering across
// operators, no exploitation of chained operations or operand commuting —
// and disables code compaction.  This reproduces the behavior of the
// contemporary target-specific C compilers the paper compares against,
// which RECORD's grammar-based selector consistently beats.
package naive

import (
	"context"
	"fmt"

	"repro/internal/cfront"
	"repro/internal/core"
	"repro/internal/ir"
)

// Lower3AC rewrites a program into three-address form: every operator
// application is hoisted into an assignment to a fresh temporary scalar.
func Lower3AC(prog *ir.Program) (*ir.Program, error) {
	l := &lowerer{}
	out := &ir.Program{Decls: append([]*ir.Decl(nil), prog.Decls...)}
	body, err := l.stmts(prog.Body)
	if err != nil {
		return nil, err
	}
	out.Body = body
	for i := 0; i < l.temps; i++ {
		out.Decls = append(out.Decls, &ir.Decl{Name: tempName(i)})
	}
	return out, nil
}

type lowerer struct {
	temps int
}

func tempName(i int) string { return fmt.Sprintf("__t%d", i) }

func (l *lowerer) fresh() string {
	n := tempName(l.temps)
	l.temps++
	return n
}

func (l *lowerer) stmts(in []ir.Stmt) ([]ir.Stmt, error) {
	var out []ir.Stmt
	for _, s := range in {
		switch st := s.(type) {
		case *ir.Assign:
			pre, rhs, err := l.expr(st.RHS, true)
			if err != nil {
				return nil, err
			}
			out = append(out, pre...)
			// Index expressions of the destination are also flattened.
			lhs := st.LHS
			if lhs.Index != nil {
				preIdx, idx, err := l.expr(lhs.Index, false)
				if err != nil {
					return nil, err
				}
				out = append(out, preIdx...)
				lhs = &ir.Ref{Name: lhs.Name, Index: idx}
			}
			out = append(out, &ir.Assign{LHS: lhs, RHS: rhs})
		case *ir.For:
			body, err := l.stmts(st.Body)
			if err != nil {
				return nil, err
			}
			out = append(out, &ir.For{Var: st.Var, From: st.From, To: st.To,
				Step: st.Step, Body: body})
		default:
			return nil, fmt.Errorf("naive: unknown statement %T", s)
		}
	}
	return out, nil
}

// expr lowers e, returning prefix statements and a residual expression.
// When top is true the residual may be a single operator over leaves
// (the final assignment carries one operation, as three-address code
// does); otherwise the residual must be a leaf.
func (l *lowerer) expr(e ir.Expr, top bool) ([]ir.Stmt, ir.Expr, error) {
	switch x := e.(type) {
	case *ir.Const:
		return nil, x, nil
	case *ir.Ref:
		if x.Index == nil {
			return nil, x, nil
		}
		pre, idx, err := l.expr(x.Index, false)
		if err != nil {
			return nil, nil, err
		}
		return pre, &ir.Ref{Name: x.Name, Index: idx}, nil
	case *ir.Bin:
		preX, ex, err := l.expr(x.X, false)
		if err != nil {
			return nil, nil, err
		}
		preY, ey, err := l.expr(x.Y, false)
		if err != nil {
			return nil, nil, err
		}
		pre := append(preX, preY...)
		op := &ir.Bin{Op: x.Op, X: ex, Y: ey}
		if top {
			return pre, op, nil
		}
		t := l.fresh()
		pre = append(pre, &ir.Assign{LHS: &ir.Ref{Name: t}, RHS: op})
		return pre, &ir.Ref{Name: t}, nil
	case *ir.Un:
		preX, ex, err := l.expr(x.X, false)
		if err != nil {
			return nil, nil, err
		}
		op := &ir.Un{Op: x.Op, X: ex}
		if top {
			return preX, op, nil
		}
		t := l.fresh()
		preX = append(preX, &ir.Assign{LHS: &ir.Ref{Name: t}, RHS: op})
		return preX, &ir.Ref{Name: t}, nil
	}
	return nil, nil, fmt.Errorf("naive: unknown expression %T", e)
}

// Compile compiles a program with the naive strategy on the given target:
// loops are unrolled first (so array indices are constants, as the tree
// path also sees them), then everything is three-address lowered and
// compiled through c with compaction disabled.
func Compile(c *core.Compiler, prog *ir.Program) (*core.CompileResult, error) {
	assigns, err := ir.Flatten(prog)
	if err != nil {
		return nil, err
	}
	flat := &ir.Program{Decls: prog.Decls}
	for _, a := range assigns {
		flat.Body = append(flat.Body, a)
	}
	lowered, err := Lower3AC(flat)
	if err != nil {
		return nil, err
	}
	return c.CompileProgramOpts(context.Background(), lowered, core.CompileOptions{NoCompaction: true})
}

// CompileSource is Compile for RecC source text.
func CompileSource(c *core.Compiler, src string) (*core.CompileResult, error) {
	prog, err := cfront.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(c, prog)
}
