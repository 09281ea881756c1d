package burs

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/grammar"
	"repro/internal/rtl"
)

// testMachine builds a small accumulator-machine template base and grammar:
//
//	acc := acc + ram[IW]     acc := acc - ram[IW]
//	acc := ram[IW]           ram[IW] := acc
//	acc := IW (8-bit imm)    t := ram[IW]
//	acc := t * ram[IW]       acc := acc + t
//	t := acc                 (a chain rule)
func testMachine(t *testing.T) (*grammar.Grammar, *rtl.Base) {
	t.Helper()
	m := bdd.New()
	base := rtl.NewBase(m)
	imm := func() *rtl.Expr { return rtl.NewInsnField(7, 0) }
	ram := func() *rtl.Expr { return rtl.NewRead("ram.m", 16, imm()) }
	acc := func() *rtl.Expr { return rtl.NewRead("acc.r", 16, nil) }
	tr := func() *rtl.Expr { return rtl.NewRead("t.r", 16, nil) }
	add := func(tpl *rtl.Template) {
		tpl.Cond = rtl.ExecCond{Static: m.True()}
		tpl.Width = 16
		base.Add(tpl)
	}
	add(&rtl.Template{Dest: "acc.r", Src: rtl.NewOp(rtl.OpAdd, 16, acc(), ram())})
	add(&rtl.Template{Dest: "acc.r", Src: rtl.NewOp(rtl.OpSub, 16, acc(), ram())})
	add(&rtl.Template{Dest: "acc.r", Src: ram()})
	add(&rtl.Template{Dest: "ram.m", DestAddr: imm(), Src: acc()})
	add(&rtl.Template{Dest: "acc.r", Src: imm()})
	add(&rtl.Template{Dest: "t.r", Src: ram()})
	add(&rtl.Template{Dest: "acc.r", Src: rtl.NewOp(rtl.OpMul, 16, tr(), ram())})
	add(&rtl.Template{Dest: "acc.r", Src: rtl.NewOp(rtl.OpAdd, 16, acc(), tr())})
	add(&rtl.Template{Dest: "t.r", Src: acc()})

	spec := grammar.Spec{Storages: []grammar.StorageInfo{
		{Name: "acc.r", Width: 16, Size: 1},
		{Name: "t.r", Width: 16, Size: 1},
		{Name: "ram.m", Width: 16, Size: 256},
	}}
	g, err := grammar.Build(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	return g, base
}

func ramAt(addr int64) *rtl.Expr {
	return rtl.NewRead("ram.m", 16, rtl.NewConst(addr, 16))
}

func accLeaf() *rtl.Expr { return rtl.NewRead("acc.r", 16, nil) }

func TestGrammarShape(t *testing.T) {
	g, base := testMachine(t)
	st := g.Stats()
	if st.StartRules != 3 || st.StopRules != 2 {
		t.Errorf("start=%d stop=%d", st.StartRules, st.StopRules)
	}
	if st.RTRules != base.Len() {
		t.Errorf("rt rules = %d, templates = %d", st.RTRules, base.Len())
	}
	// Two chain rules: "t := acc" and the store "ram[IW] := acc" (whose
	// pattern is the bare nonterminal acc).
	if st.ChainRules != 2 {
		t.Errorf("chain rules = %d, want 2", st.ChainRules)
	}
	if g.NT("acc.r") < 1 || g.NT("ram.m") < 1 || g.NT("nope") != -1 {
		t.Error("NT lookup broken")
	}
	if !strings.Contains(g.String(), "->") {
		t.Error("grammar rendering empty")
	}
}

func TestCoverSimpleLoad(t *testing.T) {
	g, _ := testMachine(t)
	p := NewParser(g)
	// acc := ram[5]
	c, err := p.Cover("acc.r", ramAt(5))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cost != 1 {
		t.Fatalf("cost = %d, want 1", c.Cost)
	}
	tpls := c.Root.Templates(g)
	if len(tpls) != 1 || tpls[0].String() != "acc.r := ram.m[IW[7:0]]" {
		t.Fatalf("selected %v", tpls)
	}
}

func TestCoverAdd(t *testing.T) {
	g, _ := testMachine(t)
	p := NewParser(g)
	// acc := ram[5] + ram[6]  -> load; add  (cost 2)
	e := rtl.NewOp(rtl.OpAdd, 16, ramAt(5), ramAt(6))
	c, err := p.Cover("acc.r", e)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cost != 2 {
		t.Fatalf("cost = %d, want 2", c.Cost)
	}
	tpls := c.Root.Templates(g)
	if len(tpls) != 2 {
		t.Fatalf("templates = %v", tpls)
	}
	// Bottom-up order: the load comes first.
	if !strings.Contains(tpls[0].String(), "acc.r := ram.m") {
		t.Errorf("first template = %s", tpls[0])
	}
	if !strings.Contains(tpls[1].String(), "(acc.r + ram.m") {
		t.Errorf("second template = %s", tpls[1])
	}
}

func TestCoverChainedMulAcc(t *testing.T) {
	g, _ := testMachine(t)
	p := NewParser(g)
	// acc := acc + ram[5]*ram[6]
	// -> t := ram[5]; acc := t*ram[6]; t := acc; acc := acc + t
	e := rtl.NewOp(rtl.OpAdd, 16, accLeaf(),
		rtl.NewOp(rtl.OpMul, 16, ramAt(5), ramAt(6)))
	c, err := p.Cover("acc.r", e)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cost != 4 {
		t.Fatalf("cost = %d, want 4", c.Cost)
	}
	if got := len(c.Root.Templates(g)); got != 4 {
		t.Fatalf("template count = %d", got)
	}
}

func TestCoverMemoryDestination(t *testing.T) {
	g, _ := testMachine(t)
	p := NewParser(g)
	// ram[9] := ram[5] + ram[6]: load, add, store = 3.
	e := rtl.NewOp(rtl.OpAdd, 16, ramAt(5), ramAt(6))
	c, err := p.Cover("ram.m", e)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cost != 3 {
		t.Fatalf("cost = %d, want 3", c.Cost)
	}
}

func TestCoverImmediates(t *testing.T) {
	g, _ := testMachine(t)
	p := NewParser(g)
	// Fits the 8-bit field.
	if c, err := p.Cover("acc.r", rtl.NewConst(255, 16)); err != nil || c.Cost != 1 {
		t.Fatalf("imm 255: cost=%v err=%v", c, err)
	}
	// Too wide for the field: uncoverable on this machine.
	if _, err := p.Cover("acc.r", rtl.NewConst(4096, 16)); err == nil {
		t.Fatal("imm 4096 should not be encodable")
	}
	// Negative immediate fits signed.
	if c, err := p.Cover("acc.r", rtl.NewConst(-128, 16)); err != nil || c.Cost != 1 {
		t.Fatalf("imm -128: cost=%v err=%v", c, err)
	}
}

func TestCoverErrors(t *testing.T) {
	g, _ := testMachine(t)
	p := NewParser(g)
	// Unsupported operator.
	e := rtl.NewOp(rtl.OpXor, 16, ramAt(1), ramAt(2))
	_, err := p.Cover("acc.r", e)
	ce, ok := err.(*CoverError)
	if !ok {
		t.Fatalf("err = %v, want CoverError", err)
	}
	if len(ce.Derivable) != 0 {
		t.Errorf("xor should be underivable anywhere, got %v", ce.Derivable)
	}
	if !strings.Contains(ce.Error(), "unsupported") {
		t.Errorf("message = %q", ce.Error())
	}
	// Unknown destination.
	if _, err := p.Cover("bogus", ramAt(1)); err == nil {
		t.Error("unknown destination accepted")
	}
	// Derivable into acc but not into a destination with no templates:
	// t.r only accepts ram loads and acc moves, so an add tree still works
	// via chaining — but a PORT-less dest that lacks rules fails cleanly.
}

func TestStepWalkOrder(t *testing.T) {
	g, _ := testMachine(t)
	p := NewParser(g)
	e := rtl.NewOp(rtl.OpAdd, 16, ramAt(5), ramAt(6))
	c, err := p.Cover("acc.r", e)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []grammar.RuleKind
	c.Root.Walk(func(s *Step) { kinds = append(kinds, s.Rule.Kind) })
	if kinds[len(kinds)-1] != grammar.KindRT {
		t.Errorf("root of derivation should be the RT rule, got %v", kinds)
	}
}

// TestPropDerivationCostConsistent: the sum of rule costs along the emitted
// derivation equals the claimed optimal cost.
func TestPropDerivationCostConsistent(t *testing.T) {
	g, _ := testMachine(t)
	p := NewParser(g)
	rng := rand.New(rand.NewSource(77))
	var gen func(depth int) *rtl.Expr
	gen = func(depth int) *rtl.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return ramAt(int64(rng.Intn(100)))
			}
			return accLeaf()
		}
		ops := []rtl.Op{rtl.OpAdd, rtl.OpSub, rtl.OpMul}
		return rtl.NewOp(ops[rng.Intn(3)], 16, gen(depth-1), gen(depth-1))
	}
	for trial := 0; trial < 200; trial++ {
		e := gen(3)
		c, err := p.Cover("acc.r", e)
		if err != nil {
			continue // some shapes are legitimately uncoverable
		}
		sum := 0
		c.Root.Walk(func(s *Step) { sum += int(s.Rule.Cost) })
		if sum+int(c.Start.Cost) != c.Cost {
			t.Fatalf("trial %d: derivation cost %d != claimed %d for %s",
				trial, sum, c.Cost, e)
		}
	}
}

// TestEmitGoSwapRule checks that a swap rule is emitted with its own,
// swapped pattern: the table carries no swap masks.
func TestEmitGoSwapRule(t *testing.T) {
	m := bdd.New()
	base := rtl.NewBase(m)
	add := base.Add(&rtl.Template{Dest: "acc.r", Width: 16, Cond: rtl.ExecCond{Static: m.True()},
		Src: rtl.NewOp(rtl.OpAdd, 16, accLeaf(), rtl.NewRead("ram.m", 16, rtl.NewInsnField(7, 0)))})
	base.AddSwap(add, 1)
	g, err := grammar.Build(base, grammar.Spec{Storages: []grammar.StorageInfo{
		{Name: "acc.r", Width: 16, Size: 1},
		{Name: "ram.m", Width: 16, Size: 256},
	}})
	if err != nil {
		t.Fatal(err)
	}
	src := EmitGo(g, "swapparser")
	for _, want := range []string{
		`Pat: "+/16(nt1,mem:ram.m(imm[7:0]))"`,
		`Pat: "+/16(mem:ram.m(imm[7:0]),nt1)"`,
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted table lacks %s:\n%s", want, src)
		}
	}
	if strings.Contains(src, "Swap") {
		t.Errorf("emitted table carries a swap mask:\n%s", src)
	}
}

func TestEmitGo(t *testing.T) {
	g, _ := testMachine(t)
	src := EmitGo(g, "tinyparser")
	if !strings.Contains(src, "package tinyparser") {
		t.Fatal("missing package clause")
	}
	if !strings.Contains(src, "var Rules = []Rule{") {
		t.Fatal("missing rule table")
	}
	// The emitted file must be valid Go.
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "gen.go", src, 0)
	if err != nil {
		t.Fatalf("emitted source does not parse: %v\n%s", err, src)
	}
	// ... and must type-check (the analogue of iburg's output surviving
	// the C compiler).
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("tinyparser", fset, []*ast.File{f}, nil); err != nil {
		t.Fatalf("emitted source does not type-check: %v", err)
	}
}
