package rtl

import (
	"math"
	"testing"
)

// TestKeyStrings pins the exact structural key of every expression kind
// and template shape.  Base deduplication and the grammar's rule buckets
// are keyed by these strings, so a change in their spelling is a change in
// behaviour, not a refactor.
func TestKeyStrings(t *testing.T) {
	acc := NewRead("acc.r", 16, nil)
	field := NewInsnField(7, 0)
	exprs := []struct {
		e    *Expr
		want string
	}{
		{NewConst(0, 1), "c0:1"},
		{NewConst(-5, 8), "c-5:8"},
		{NewConst(math.MaxInt64, 64), "c9223372036854775807:64"},
		{NewConst(math.MinInt64, 64), "c-9223372036854775808:64"},
		{NewPort("din", 16), "pdin:16"},
		{NewInsnField(15, 0), "f15.0"},
		{NewInsnField(3, 3), "f3.3"},
		{acc, "racc.r:16"},
		{NewRead("ram.m", 16, field), "rram.m:16(f7.0)"},
		{NewOp(OpAdd, 16, acc, NewConst(1, 16)), "o+:16(racc.r:16,c1:16)"},
		{NewOp(OpAshr, 32, acc, NewConst(-1, 4)), "o>>>:32(racc.r:16,c-1:4)"},
		{NewOp(OpNeg, 16, acc), "oneg:16(racc.r:16)"},
		{&Expr{Kind: Slice, Hi: 15, Lo: 8, Width: 8, Kids: []*Expr{acc}}, "s15.8(racc.r:16)"},
		{&Expr{Kind: OpApp, Op: OpPass, Width: 8, Kids: []*Expr{nil}}, "opass:8(_)"},
		{&Expr{Kind: ExprKind(99), Width: 3}, ""},
		{nil, "_"},
	}
	for _, c := range exprs {
		if got := c.e.Key(); got != c.want {
			t.Errorf("Expr.Key(%s) = %q; want %q", c.e, got, c.want)
		}
	}

	templates := []struct {
		t    *Template
		want string
	}{
		{&Template{Dest: "acc.r", Src: NewRead("b.r", 16, nil)}, "acc.r=;rb.r:16"},
		{&Template{Dest: "dout", DestPort: true, Src: acc}, "P!dout=;racc.r:16"},
		{&Template{Dest: "ram.m", DestAddr: field, Src: NewConst(-2, 16)}, "ram.m=f7.0;c-2:16"},
		{&Template{Dest: "ram.m", DestAddr: NewOp(OpAdd, 8, NewRead("ar.r", 8, nil), NewConst(1, 8)), Src: acc},
			"ram.m=o+:8(rar.r:8,c1:8);racc.r:16"},
		{&Template{Dest: "x"}, "x=;_"},
	}
	for _, c := range templates {
		if got := c.t.Key(); got != c.want {
			t.Errorf("Template.Key(%s) = %q; want %q", c.t.Dest, got, c.want)
		}
	}
}
