package codegen_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bdd"
	"repro/internal/bind"
	"repro/internal/burs"
	"repro/internal/codegen"
	"repro/internal/grammar"
	"repro/internal/ir"
	"repro/internal/rtl"
)

// TestSpillUnderDeepStep compiles a tree whose spill runs inside a step
// that is still in use: on a machine whose only store goes through a
// chain of three copy registers, spilling t takes a five-step
// derivation, more steps than the subtraction below the root has
// descendants.  Derivation scratch only grows within a top-level tree,
// so the spill's steps must land after the subtraction's instead of over
// it.
//
//	acc := ram[IW]          t := acc + ram[IW]
//	t := ram[IW]            acc := t * ram[IW]
//	acc := t - acc          acc := acc + ram[IW]
//	c1 := t   c2 := c1   c3 := c2   ram[IW] := c3
func TestSpillUnderDeepStep(t *testing.T) {
	m := bdd.New()
	base := rtl.NewBase(m)
	s := base.Exprs()
	imm := s.Node(rtl.Expr{Kind: rtl.InsnField, Hi: 7, Lo: 0, Width: 8})
	ram := s.Read("ram.m", 16, imm)
	reg := func(name string) rtl.ExprID { return s.Read(name, 16, rtl.NoExpr) }
	add := func(dest string, addr, src rtl.ExprID) {
		base.Add(&rtl.Template{Dest: dest, DestAddr: addr, Src: src, Width: 16,
			Cond: rtl.ExecCond{Static: m.True()}})
	}
	add("acc.r", rtl.NoExpr, ram)
	add("t.r", rtl.NoExpr, s.Op(rtl.OpAdd, 16, reg("acc.r"), ram))
	add("t.r", rtl.NoExpr, ram)
	add("acc.r", rtl.NoExpr, s.Op(rtl.OpMul, 16, reg("t.r"), ram))
	add("acc.r", rtl.NoExpr, s.Op(rtl.OpSub, 16, reg("t.r"), reg("acc.r")))
	add("acc.r", rtl.NoExpr, s.Op(rtl.OpAdd, 16, reg("acc.r"), ram))
	add("c1.r", rtl.NoExpr, reg("t.r"))
	add("c2.r", rtl.NoExpr, reg("c1.r"))
	add("c3.r", rtl.NoExpr, reg("c2.r"))
	add("ram.m", imm, reg("c3.r"))
	spec := grammar.Spec{Storages: []grammar.StorageInfo{{Name: "ram.m", Width: 16, Size: 256}}}
	for _, r := range []string{"acc.r", "t.r", "c1.r", "c2.r", "c3.r"} {
		spec.Storages = append(spec.Storages, grammar.StorageInfo{Name: r, Width: 16, Size: 1})
	}
	g, err := grammar.Build(base, spec)
	if err != nil {
		t.Fatal(err)
	}

	// The binding only lays out memory: ram.m with its scratch cells.
	b, err := bind.Bind(&ir.Program{}, retarget(t, oneAcc).Net)
	if err != nil {
		t.Fatal(err)
	}
	if b.Memory != "ram.m" || b.Width != 16 {
		t.Fatalf("binding uses %s, %d bits", b.Memory, b.Width)
	}
	bs := b.Exprs()
	at := func(addr int64) rtl.ExprID { return bs.Read("ram.m", 16, bs.Const(addr, b.AddrWidth)) }
	// acc := ((ram[1] + ram[2]) - (ram[3] * ram[4])) + ram[5]
	src := bs.Op(rtl.OpAdd, 16,
		bs.Op(rtl.OpSub, 16,
			bs.Op(rtl.OpAdd, 16, at(1), at(2)),
			bs.Op(rtl.OpMul, 16, at(3), at(4))),
		at(5))
	seq, err := codegen.New(g, burs.NewParser(g), b).Compile([]*bind.ET{{Dest: "acc.r", DestAddr: rtl.NoExpr, Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	cell := b.ScratchBase + b.ScratchLen - 1
	want := []string{
		"acc.r := ram.m[IW[7:0]] {IW[7:0]=1}",
		"t.r := (acc.r + ram.m[IW[7:0]]) {IW[7:0]=2}",
		"c1.r := t.r",
		"c2.r := c1.r",
		"c3.r := c2.r",
		fmt.Sprintf("ram.m[IW[7:0]] := c3.r {IW[7:0]=%d}", cell),
		"t.r := ram.m[IW[7:0]] {IW[7:0]=3}",
		"acc.r := (t.r * ram.m[IW[7:0]]) {IW[7:0]=4}",
		fmt.Sprintf("t.r := ram.m[IW[7:0]] {IW[7:0]=%d}", cell),
		"acc.r := (t.r - acc.r)",
		"acc.r := (acc.r + ram.m[IW[7:0]]) {IW[7:0]=5}",
	}
	var got []string
	for _, in := range seq.Instrs {
		got = append(got, in.String())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("code:\n%s\nwant:\n%q", seq, want)
	}
}
