package grammar

import (
	"math"
	"testing"

	"repro/internal/rtl"
)

// TestTermAndSubjectKeyStrings pins the rule-bucket strings for every
// pattern and subject node kind: a subject node is labelled with the rules
// filed under SubjectKey, so both spellings must stay in step.
func TestTermAndSubjectKeyStrings(t *testing.T) {
	pats := []struct {
		p    *Pat
		want string
	}{
		{&Pat{Kind: PatNT, NT: 3}, ""},
		{&Pat{Kind: PatOp, Op: rtl.OpAdd, Width: 16}, "op:+:16"},
		{&Pat{Kind: PatOp, Op: rtl.OpAshr, Width: 64}, "op:>>>:64"},
		{&Pat{Kind: PatOp, Op: rtl.OpNeg, Width: -1}, "op:neg:-1"},
		{&Pat{Kind: PatReg, Storage: "acc.r"}, "reg:acc.r"},
		{&Pat{Kind: PatMem, Storage: "ram.m"}, "mem:ram.m"},
		{&Pat{Kind: PatImm, ImmHi: 7, ImmLo: 0}, "#const"},
		{&Pat{Kind: PatConst, Val: math.MinInt64}, "#const"},
		{&Pat{Kind: PatPort, Port: "din"}, "port:din"},
		{&Pat{Kind: PatSlice, Hi: 15, Lo: 8}, "slice:15:8"},
		{&Pat{Kind: PatKind(99)}, ""},
	}
	for _, c := range pats {
		if got := c.p.TermKey(); got != c.want {
			t.Errorf("TermKey(kind %d) = %q; want %q", c.p.Kind, got, c.want)
		}
	}

	acc := rtl.NewRead("acc.r", 16, nil)
	subjects := []struct {
		e    *rtl.Expr
		want string
	}{
		{rtl.NewOp(rtl.OpMul, 32, acc, acc), "op:*:32"},
		{rtl.NewOp(rtl.OpNot, 64, acc), "op:~:64"},
		{acc, "reg:acc.r"},
		{rtl.NewRead("ram.m", 16, rtl.NewInsnField(7, 0)), "mem:ram.m"},
		{rtl.NewConst(-5, 8), "#const"},
		{rtl.NewConst(math.MaxInt64, 64), "#const"},
		{rtl.NewPort("din", 16), "port:din"},
		{&rtl.Expr{Kind: rtl.Slice, Hi: 15, Lo: 8, Width: 8, Kids: []*rtl.Expr{acc}}, "slice:15:8"},
		{rtl.NewInsnField(3, 0), "#const"},
		{&rtl.Expr{Kind: rtl.ExprKind(99)}, ""},
	}
	for _, c := range subjects {
		if got := SubjectKey(c.e); got != c.want {
			t.Errorf("SubjectKey(%s) = %q; want %q", c.e, got, c.want)
		}
	}
}
