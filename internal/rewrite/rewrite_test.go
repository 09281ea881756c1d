package rewrite

import (
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/rtl"
)

func TestPatternMatchBasics(t *testing.T) {
	// (a + b) matches Op(+, $x, $y)
	var s rtl.Store
	e := op(rtl.OpAdd, 16, read("a.r"), read("b.r")).build(&s)
	p := Op(rtl.OpAdd, V("x"), V("y"))
	var b Bindings
	if !p.Match(&s, e, &b) {
		t.Fatal("match failed")
	}
	x, _ := lookup(b.Sub, "x")
	y, _ := lookup(b.Sub, "y")
	if s.Expr(x).Storage != "a.r" || s.Expr(y).Storage != "b.r" {
		t.Errorf("bindings = %v", b.Sub)
	}
	// Wrong operator.
	if Op(rtl.OpSub, V("x"), V("y")).Match(&s, e, &b) {
		t.Error("sub pattern matched add")
	}
}

func TestPatternNonlinear(t *testing.T) {
	// $x + $x only matches equal operands.
	var s rtl.Store
	var b Bindings
	p := Op(rtl.OpAdd, V("x"), V("x"))
	same := op(rtl.OpAdd, 16, read("a.r"), read("a.r")).build(&s)
	diff := op(rtl.OpAdd, 16, read("a.r"), read("b.r")).build(&s)
	if !p.Match(&s, same, &b) {
		t.Error("nonlinear match failed on equal operands")
	}
	if p.Match(&s, diff, &b) {
		t.Error("nonlinear match succeeded on different operands")
	}
}

func TestPatternConsts(t *testing.T) {
	var s rtl.Store
	var b Bindings
	e := op(rtl.OpShl, 16, read("a.r"), cnst(3, 4)).build(&s)
	if !Op(rtl.OpShl, V("a"), C(3)).Match(&s, e, &b) {
		t.Error("PConst match failed")
	}
	if Op(rtl.OpShl, V("a"), C(2)).Match(&s, e, &b) {
		t.Error("PConst matched wrong value")
	}
	ok := Op(rtl.OpShl, V("a"), AC("k")).Match(&s, e, &b)
	if k, _ := b.Const.Get("k"); !ok || k != 3 {
		t.Errorf("PAnyConst binding = %v", b)
	}
	// AnyConst refuses non-constants.
	e2 := op(rtl.OpShl, 16, read("a.r"), read("b.r")).build(&s)
	if Op(rtl.OpShl, V("a"), AC("k")).Match(&s, e2, &b) {
		t.Error("PAnyConst matched a register read")
	}
}

func TestInstantiate(t *testing.T) {
	var s rtl.Store
	b := &Bindings{
		Sub:   []Bound[rtl.ExprID]{{"a", read("x.r").build(&s)}},
		Const: Consts{{"c", 8}},
	}
	p := Op(rtl.OpMul, V("a"), AC("c"))
	e, err := p.Instantiate(&s, b, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s.String(e) != "(x.r * 8)" {
		t.Errorf("instantiated = %s", s.String(e))
	}
	if c := s.Kids(e)[1]; s.Expr(e).Width != 16 || s.Expr(c).Width != 16 {
		t.Errorf("widths = %d/%d", s.Expr(e).Width, s.Expr(c).Width)
	}
	// Unbound variable errors.
	if _, err := Op(rtl.OpAdd, V("zz"), V("a")).Instantiate(&s, b, 16); err == nil {
		t.Error("unbound variable must error")
	}
}

func newBase() (*rtl.Base, *bdd.Manager) {
	m := bdd.New()
	return rtl.NewBase(m), m
}

func addTemplate(b *rtl.Base, m *bdd.Manager, dest string, src *node) *rtl.Template {
	return b.Add(&rtl.Template{
		Dest: dest, DestAddr: rtl.NoExpr, Src: src.build(b.Exprs()), Width: src.Width,
		Cond: rtl.ExecCond{Static: m.True()},
	})
}

func TestCommutativityExtension(t *testing.T) {
	b, m := newBase()
	// acc := mem + acc  (a MAC-ish shape)
	addTemplate(b, m, "acc.r", op(rtl.OpAdd, 16, read("mem.m"), read("acc.r")))
	n := Extend(b, Options{Commutativity: true})
	if n != 1 {
		t.Fatalf("added %d entries, want 1:\n%s", n, b)
	}
	if len(b.Templates) != 1 || len(b.Swaps) != 1 {
		t.Fatalf("%d templates and %d swaps, want the swap as an entry over the template:\n%s",
			len(b.Templates), len(b.Swaps), b)
	}
	if s := b.Swaps[0]; s.Of != b.Templates[0] || s.String() != "acc.r := (acc.r + mem.m)" {
		t.Fatalf("swap %s over %s:\n%s", s, s.Of, b)
	}
}

func TestCommutativityNested(t *testing.T) {
	b, m := newBase()
	// acc := (x * y) + acc: 2 commutative nodes -> 3 new variants.
	mac := op(rtl.OpAdd, 16,
		op(rtl.OpMul, 16, read("x.r"), read("y.r")), read("acc.r"))
	addTemplate(b, m, "acc.r", mac)
	n := Extend(b, Options{Commutativity: true})
	if n != 3 || len(b.Swaps) != 3 {
		t.Fatalf("added %d entries (%d swaps), want 3 swaps:\n%s", n, len(b.Swaps), b)
	}
	want := "acc.r := (acc.r + (y.r * x.r))"
	ok := false
	for _, s := range b.Swaps {
		if s.String() == want {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("double-swap variant missing:\n%s", b)
	}
}

func TestNonCommutativeUntouched(t *testing.T) {
	b, m := newBase()
	addTemplate(b, m, "acc.r", op(rtl.OpSub, 16, read("a.r"), read("b.r")))
	if n := Extend(b, Options{Commutativity: true}); n != 0 {
		t.Fatalf("subtraction gained %d commuted variants", n)
	}
}

func TestMul2ShiftRule(t *testing.T) {
	b, m := newBase()
	addTemplate(b, m, "acc.r",
		op(rtl.OpShl, 16, read("acc.r"), cnst(3, 4)))
	n := Extend(b, Options{Rules: StandardLibrary()})
	if n == 0 {
		t.Fatalf("no templates added:\n%s", b)
	}
	found := false
	for _, tpl := range b.Templates {
		if strings.Contains(tpl.String(), "acc.r * 8") {
			found = true
		}
	}
	if !found {
		t.Fatalf("mul-by-8 variant missing:\n%s", b)
	}
}

func TestNegIsZeroSubRule(t *testing.T) {
	b, m := newBase()
	addTemplate(b, m, "acc.r",
		op(rtl.OpSub, 16, cnst(0, 16), read("b.r")))
	Extend(b, Options{Rules: StandardLibrary()})
	found := false
	for _, tpl := range b.Templates {
		if e := b.Exprs().Expr(tpl.Src); e.Kind == rtl.OpApp && e.Op == rtl.OpNeg {
			found = true
		}
	}
	if !found {
		t.Fatalf("neg variant missing:\n%s", b)
	}
}

func TestPassthroughRule(t *testing.T) {
	b, m := newBase()
	addTemplate(b, m, "acc.r",
		op(rtl.OpPass, 16, read("b.r")))
	Extend(b, Options{Rules: StandardLibrary()})
	found := false
	for _, tpl := range b.Templates {
		if e := b.Exprs().Expr(tpl.Src); e.Kind == rtl.Read && e.Storage == "b.r" {
			found = true
		}
	}
	if !found {
		t.Fatalf("plain move variant missing:\n%s", b)
	}
}

func TestExtendDedupsAgainstExisting(t *testing.T) {
	b, m := newBase()
	addTemplate(b, m, "acc.r", op(rtl.OpAdd, 16, read("a.r"), read("b.r")))
	addTemplate(b, m, "acc.r", op(rtl.OpAdd, 16, read("b.r"), read("a.r")))
	// Both orders already exist: commutativity adds nothing.
	if n := Extend(b, Options{Commutativity: true}); n != 0 {
		t.Fatalf("added %d, want 0", n)
	}
}

func TestExtendPreservesConditions(t *testing.T) {
	b, m := newBase()
	x := m.Var(0)
	b.Add(&rtl.Template{
		Dest: "acc.r", DestAddr: rtl.NoExpr, Width: 16,
		Src:  op(rtl.OpAdd, 16, read("a.r"), read("b.r")).build(b.Exprs()),
		Cond: rtl.ExecCond{Static: x},
	})
	Extend(b, Options{Commutativity: true})
	if len(b.Swaps) == 0 {
		t.Fatalf("no swap entry:\n%s", b)
	}
	b.Each(func(s rtl.Swap) {
		if s.Of.Cond.Static != x {
			t.Errorf("entry %s lost its condition", s)
		}
	})
}

func TestVariantLimit(t *testing.T) {
	b, m := newBase()
	// Deep chain of commutative adds would explode; the limit caps it.
	e := read("r0.r")
	for i := 1; i < 12; i++ {
		e = op(rtl.OpAdd, 16, e, read("r1.r"))
	}
	addTemplate(b, m, "acc.r", e)
	n := Extend(b, Options{Commutativity: true, MaxVariantsPerTemplate: 16})
	if n > 16 {
		t.Fatalf("limit not enforced: %d variants", n)
	}
}
