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
	s := base.Exprs()
	imm := field(s, 7, 0)
	ram := s.Read("ram.m", 16, imm)
	acc := accLeaf(s)
	tr := s.Read("t.r", 16, rtl.NoExpr)
	add := func(dest string, addr, src rtl.ExprID) {
		base.Add(&rtl.Template{Dest: dest, DestAddr: addr, Src: src, Width: 16,
			Cond: rtl.ExecCond{Static: m.True()}})
	}
	add("acc.r", rtl.NoExpr, s.Op(rtl.OpAdd, 16, acc, ram))
	add("acc.r", rtl.NoExpr, s.Op(rtl.OpSub, 16, acc, ram))
	add("acc.r", rtl.NoExpr, ram)
	add("ram.m", imm, acc)
	add("acc.r", rtl.NoExpr, imm)
	add("t.r", rtl.NoExpr, ram)
	add("acc.r", rtl.NoExpr, s.Op(rtl.OpMul, 16, tr, ram))
	add("acc.r", rtl.NoExpr, s.Op(rtl.OpAdd, 16, acc, tr))
	add("t.r", rtl.NoExpr, acc)

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

func field(s *rtl.Store, hi, lo int) rtl.ExprID {
	return s.Node(rtl.Expr{Kind: rtl.InsnField, Hi: hi, Lo: lo, Width: hi - lo + 1})
}

func ramAt(s *rtl.Store, addr int64) rtl.ExprID {
	return s.Read("ram.m", 16, s.Const(addr, 16))
}

func accLeaf(s *rtl.Store) rtl.ExprID { return s.Read("acc.r", 16, rtl.NoExpr) }

// cover labels subject tree h of s and covers it into dest.
func cover(p *Parser, s *rtl.Store, dest string, h rtl.ExprID) (*Cover, error) {
	l := p.NewLabels(s)
	l.Label(h)
	return l.Cover(dest, h)
}

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
	s := new(rtl.Store)
	c, err := cover(p, s, "acc.r", ramAt(s, 5))
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
	s := new(rtl.Store)
	c, err := cover(p, s, "acc.r", s.Op(rtl.OpAdd, 16, ramAt(s, 5), ramAt(s, 6)))
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
	s := new(rtl.Store)
	e := s.Op(rtl.OpAdd, 16, accLeaf(s),
		s.Op(rtl.OpMul, 16, ramAt(s, 5), ramAt(s, 6)))
	c, err := cover(p, s, "acc.r", e)
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
	s := new(rtl.Store)
	c, err := cover(p, s, "ram.m", s.Op(rtl.OpAdd, 16, ramAt(s, 5), ramAt(s, 6)))
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
	s := new(rtl.Store)
	// Fits the 8-bit field.
	if c, err := cover(p, s, "acc.r", s.Const(255, 16)); err != nil || c.Cost != 1 {
		t.Fatalf("imm 255: cost=%v err=%v", c, err)
	}
	// Too wide for the field: uncoverable on this machine.
	if _, err := cover(p, s, "acc.r", s.Const(4096, 16)); err == nil {
		t.Fatal("imm 4096 should not be encodable")
	}
	// Negative immediate fits signed.
	if c, err := cover(p, s, "acc.r", s.Const(-128, 16)); err != nil || c.Cost != 1 {
		t.Fatalf("imm -128: cost=%v err=%v", c, err)
	}
}

func TestCoverErrors(t *testing.T) {
	g, _ := testMachine(t)
	p := NewParser(g)
	// Unsupported operator.
	s := new(rtl.Store)
	_, err := cover(p, s, "acc.r", s.Op(rtl.OpXor, 16, ramAt(s, 1), ramAt(s, 2)))
	ce, ok := err.(*CoverError)
	if !ok {
		t.Fatalf("err = %v, want CoverError", err)
	}
	if len(ce.Derivable) != 0 {
		t.Errorf("xor should be underivable anywhere, got %v", ce.Derivable)
	}
	want := "burs: expression (ram.m[1] ^ ram.m[2]) not derivable from any nonterminal (operator unsupported by the target?)"
	if ce.Error() != want {
		t.Errorf("message = %q, want %q", ce.Error(), want)
	}
	// The message survives the store that held the tree.
	s.Reset()
	if ce.Error() != want {
		t.Errorf("after Reset, message = %q", ce.Error())
	}
	// Unknown destination.
	if _, err := cover(p, s, "bogus", ramAt(s, 1)); err == nil {
		t.Error("unknown destination accepted")
	}
	// Derivable into acc but not into a destination with no templates:
	// t.r only accepts ram loads and acc moves, so an add tree still works
	// via chaining — but a PORT-less dest that lacks rules fails cleanly.
}

func TestStepWalkOrder(t *testing.T) {
	g, _ := testMachine(t)
	p := NewParser(g)
	s := new(rtl.Store)
	c, err := cover(p, s, "acc.r", s.Op(rtl.OpAdd, 16, ramAt(s, 5), ramAt(s, 6)))
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
	s := new(rtl.Store)
	var gen func(depth int) rtl.ExprID
	gen = func(depth int) rtl.ExprID {
		if depth == 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return ramAt(s, int64(rng.Intn(100)))
			}
			return accLeaf(s)
		}
		ops := []rtl.Op{rtl.OpAdd, rtl.OpSub, rtl.OpMul}
		return s.Op(ops[rng.Intn(3)], 16, gen(depth-1), gen(depth-1))
	}
	for trial := 0; trial < 200; trial++ {
		e := gen(3)
		c, err := cover(p, s, "acc.r", e)
		if err != nil {
			continue // some shapes are legitimately uncoverable
		}
		sum := 0
		c.Root.Walk(func(s *Step) { sum += int(s.Rule.Cost) })
		if sum+int(c.Start.Cost) != c.Cost {
			t.Fatalf("trial %d: derivation cost %d != claimed %d for %s",
				trial, sum, c.Cost, s.String(e))
		}
	}
}

// TestEmitGoSwapRule checks that a swap rule is emitted with its own,
// swapped pattern: the table carries no swap masks.
func TestEmitGoSwapRule(t *testing.T) {
	m := bdd.New()
	base := rtl.NewBase(m)
	s := base.Exprs()
	add := base.Add(&rtl.Template{Dest: "acc.r", DestAddr: rtl.NoExpr, Width: 16, Cond: rtl.ExecCond{Static: m.True()},
		Src: s.Op(rtl.OpAdd, 16, accLeaf(s), s.Read("ram.m", 16, field(s, 7, 0)))})
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
