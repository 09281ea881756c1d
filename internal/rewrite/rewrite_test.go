package rewrite

import (
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/rtl"
)

func read(name string) *rtl.Expr { return rtl.NewRead(name, 16, nil) }

func TestPatternMatchBasics(t *testing.T) {
	// (a + b) matches Op(+, $x, $y)
	e := rtl.NewOp(rtl.OpAdd, 16, read("a.r"), read("b.r"))
	p := Op(rtl.OpAdd, V("x"), V("y"))
	b, ok := p.Match(e)
	if !ok {
		t.Fatal("match failed")
	}
	if b.Sub["x"].Storage != "a.r" || b.Sub["y"].Storage != "b.r" {
		t.Errorf("bindings = %v", b.Sub)
	}
	// Wrong operator.
	if _, ok := Op(rtl.OpSub, V("x"), V("y")).Match(e); ok {
		t.Error("sub pattern matched add")
	}
}

func TestPatternNonlinear(t *testing.T) {
	// $x + $x only matches equal operands.
	p := Op(rtl.OpAdd, V("x"), V("x"))
	same := rtl.NewOp(rtl.OpAdd, 16, read("a.r"), read("a.r"))
	diff := rtl.NewOp(rtl.OpAdd, 16, read("a.r"), read("b.r"))
	if _, ok := p.Match(same); !ok {
		t.Error("nonlinear match failed on equal operands")
	}
	if _, ok := p.Match(diff); ok {
		t.Error("nonlinear match succeeded on different operands")
	}
}

func TestPatternConsts(t *testing.T) {
	e := rtl.NewOp(rtl.OpShl, 16, read("a.r"), rtl.NewConst(3, 4))
	if _, ok := Op(rtl.OpShl, V("a"), C(3)).Match(e); !ok {
		t.Error("PConst match failed")
	}
	if _, ok := Op(rtl.OpShl, V("a"), C(2)).Match(e); ok {
		t.Error("PConst matched wrong value")
	}
	b, ok := Op(rtl.OpShl, V("a"), AC("k")).Match(e)
	if !ok || b.Const["k"] != 3 {
		t.Errorf("PAnyConst binding = %v", b)
	}
	// AnyConst refuses non-constants.
	e2 := rtl.NewOp(rtl.OpShl, 16, read("a.r"), read("b.r"))
	if _, ok := Op(rtl.OpShl, V("a"), AC("k")).Match(e2); ok {
		t.Error("PAnyConst matched a register read")
	}
}

func TestInstantiate(t *testing.T) {
	b := &Bindings{
		Sub:   map[string]*rtl.Expr{"a": read("x.r")},
		Const: map[string]int64{"c": 8},
	}
	p := Op(rtl.OpMul, V("a"), AC("c"))
	e, err := p.Instantiate(b, 16)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(x.r * 8)" {
		t.Errorf("instantiated = %s", e)
	}
	if e.Width != 16 || e.Kids[1].Width != 16 {
		t.Errorf("widths = %d/%d", e.Width, e.Kids[1].Width)
	}
	// Unbound variable errors.
	if _, err := Op(rtl.OpAdd, V("zz"), V("a")).Instantiate(b, 16); err == nil {
		t.Error("unbound variable must error")
	}
}

func newBase() (*rtl.Base, *bdd.Manager) {
	m := bdd.New()
	return rtl.NewBase(m), m
}

func addTemplate(b *rtl.Base, m *bdd.Manager, dest string, src *rtl.Expr) *rtl.Template {
	return b.Add(&rtl.Template{
		Dest: dest, Src: src, Width: src.Width,
		Cond: rtl.ExecCond{Static: m.True()},
	})
}

func TestCommutativityExtension(t *testing.T) {
	b, m := newBase()
	// acc := mem + acc  (a MAC-ish shape)
	addTemplate(b, m, "acc.r", rtl.NewOp(rtl.OpAdd, 16, read("mem.m"), read("acc.r")))
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
	mac := rtl.NewOp(rtl.OpAdd, 16,
		rtl.NewOp(rtl.OpMul, 16, read("x.r"), read("y.r")), read("acc.r"))
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
	addTemplate(b, m, "acc.r", rtl.NewOp(rtl.OpSub, 16, read("a.r"), read("b.r")))
	if n := Extend(b, Options{Commutativity: true}); n != 0 {
		t.Fatalf("subtraction gained %d commuted variants", n)
	}
}

func TestMul2ShiftRule(t *testing.T) {
	b, m := newBase()
	addTemplate(b, m, "acc.r",
		rtl.NewOp(rtl.OpShl, 16, read("acc.r"), rtl.NewConst(3, 4)))
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
		rtl.NewOp(rtl.OpSub, 16, rtl.NewConst(0, 16), read("b.r")))
	Extend(b, Options{Rules: StandardLibrary()})
	found := false
	for _, tpl := range b.Templates {
		if tpl.Src.Kind == rtl.OpApp && tpl.Src.Op == rtl.OpNeg {
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
		rtl.NewOp(rtl.OpPass, 16, read("b.r")))
	Extend(b, Options{Rules: StandardLibrary()})
	found := false
	for _, tpl := range b.Templates {
		if tpl.Src.Kind == rtl.Read && tpl.Src.Storage == "b.r" {
			found = true
		}
	}
	if !found {
		t.Fatalf("plain move variant missing:\n%s", b)
	}
}

func TestExtendDedupsAgainstExisting(t *testing.T) {
	b, m := newBase()
	addTemplate(b, m, "acc.r", rtl.NewOp(rtl.OpAdd, 16, read("a.r"), read("b.r")))
	addTemplate(b, m, "acc.r", rtl.NewOp(rtl.OpAdd, 16, read("b.r"), read("a.r")))
	// Both orders already exist: commutativity adds nothing.
	if n := Extend(b, Options{Commutativity: true}); n != 0 {
		t.Fatalf("added %d, want 0", n)
	}
}

func TestExtendPreservesConditions(t *testing.T) {
	b, m := newBase()
	x := m.Var(0)
	b.Add(&rtl.Template{
		Dest: "acc.r", Width: 16,
		Src:  rtl.NewOp(rtl.OpAdd, 16, read("a.r"), read("b.r")),
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
		e = rtl.NewOp(rtl.OpAdd, 16, e, read("r1.r"))
	}
	addTemplate(b, m, "acc.r", e)
	n := Extend(b, Options{Commutativity: true, MaxVariantsPerTemplate: 16})
	if n > 16 {
		t.Fatalf("limit not enforced: %d variants", n)
	}
}
