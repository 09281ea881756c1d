package ir_test

import (
	"fmt"
	"testing"

	"repro/internal/cfront"
	"repro/internal/dspstone"
	"repro/internal/ir"
	"repro/internal/rtl"
)

// fmtExpr and fmtAssign are the fmt-based renderers the builder-based
// String methods replaced, kept as the reference they must match.
func fmtExpr(e ir.Expr) string {
	switch x := e.(type) {
	case *ir.Const:
		return fmt.Sprintf("%d", x.Val)
	case *ir.Ref:
		if x.Index != nil {
			return fmt.Sprintf("%s[%s]", x.Name, fmtExpr(x.Index))
		}
		return x.Name
	case *ir.Bin:
		return fmt.Sprintf("(%s %s %s)", fmtExpr(x.X), x.Op, fmtExpr(x.Y))
	case *ir.Un:
		if x.Op == rtl.OpNeg {
			return fmt.Sprintf("-(%s)", fmtExpr(x.X))
		}
		return fmt.Sprintf("%s(%s)", x.Op, fmtExpr(x.X))
	}
	return fmt.Sprintf("%s", e)
}

func fmtAssign(a *ir.Assign) string {
	return fmt.Sprintf("%s = %s;", fmtExpr(a.LHS), fmtExpr(a.RHS))
}

// TestAssignStringMatchesFmt renders every flattened statement of every
// DSPStone kernel, plus hand-built statements with negative and extreme
// constants and both unary forms, through String and through fmt.
func TestAssignStringMatchesFmt(t *testing.T) {
	var stmts []*ir.Assign
	for _, k := range dspstone.Suite() {
		prog, err := cfront.Parse(k.Source)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		flat, err := ir.Flatten(prog)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		stmts = append(stmts, flat...)
	}
	x := &ir.Ref{Name: "x"}
	arr := &ir.Ref{Name: "a", Index: &ir.Bin{Op: rtl.OpAdd, X: x, Y: &ir.Const{Val: -3}}}
	stmts = append(stmts,
		&ir.Assign{LHS: x, RHS: &ir.Const{Val: -1}},
		&ir.Assign{LHS: x, RHS: &ir.Const{Val: -9223372036854775808}},
		&ir.Assign{LHS: arr, RHS: &ir.Un{Op: rtl.OpNeg, X: arr}},
		&ir.Assign{LHS: x, RHS: &ir.Un{Op: rtl.OpNot, X: &ir.Bin{Op: rtl.OpAshr, X: x, Y: &ir.Const{Val: 2}}}},
		&ir.Assign{LHS: x, RHS: nil},
	)
	for _, a := range stmts {
		if got, want := a.String(), fmtAssign(a); got != want {
			t.Errorf("statement renders as %q; fmt gives %q", got, want)
		}
		if a.RHS != nil {
			if got, want := a.RHS.String(), fmtExpr(a.RHS); got != want {
				t.Errorf("expression renders as %q; fmt gives %q", got, want)
			}
		}
	}
	if len(stmts) < 50 {
		t.Fatalf("only %d statements rendered", len(stmts))
	}
}
