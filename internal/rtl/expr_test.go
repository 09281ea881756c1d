package rtl

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bdd"
)

func TestOpProperties(t *testing.T) {
	comm := []Op{OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe}
	for _, op := range comm {
		if !op.Commutative() {
			t.Errorf("%s should be commutative", op)
		}
	}
	noncomm := []Op{OpSub, OpDiv, OpMod, OpShl, OpShr, OpAshr, OpLt, OpLe, OpGt, OpGe}
	for _, op := range noncomm {
		if op.Commutative() {
			t.Errorf("%s should not be commutative", op)
		}
	}
	if OpNeg.Arity() != 1 || OpNot.Arity() != 1 || OpPass.Arity() != 1 {
		t.Error("unary arities wrong")
	}
	if OpAdd.Arity() != 2 || OpLt.Arity() != 2 {
		t.Error("binary arities wrong")
	}
}

func sampleTree() *Expr {
	// acc := (ram[IW[7:0]] * t) + acc   — a MAC-shaped template source
	return NewOp(OpAdd, 16,
		NewOp(OpMul, 16,
			NewRead("ram.m", 16, NewInsnField(7, 0)),
			NewRead("t.r", 16, nil)),
		NewRead("acc.r", 16, nil))
}

func TestExprString(t *testing.T) {
	e := sampleTree()
	want := "((ram.m[IW[7:0]] * t.r) + acc.r)"
	if e.String() != want {
		t.Fatalf("String = %q, want %q", e, want)
	}
	if NewInsnField(3, 3).String() != "IW[3]" {
		t.Error("single-bit field rendering wrong")
	}
	if NewConst(42, 8).String() != "42" {
		t.Error("const rendering wrong")
	}
	if NewPort("in0", 16).String() != "in0" {
		t.Error("port rendering wrong")
	}
	if NewOp(OpNeg, 16, NewConst(1, 16)).String() != "neg(1)" {
		t.Error("unary rendering wrong")
	}
}

func TestSizeDepth(t *testing.T) {
	e := sampleTree()
	if e.Size() != 6 {
		t.Errorf("Size = %d, want 6", e.Size())
	}
	if e.Depth() != 4 {
		t.Errorf("Depth = %d, want 4", e.Depth())
	}
	var nilExpr *Expr
	if nilExpr.Size() != 0 || nilExpr.Depth() != 0 {
		t.Error("nil tree size/depth must be 0")
	}
}

func TestCloneEqual(t *testing.T) {
	e := sampleTree()
	c := e.Clone()
	if !e.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	if e == c || e.Kids[0] == c.Kids[0] {
		t.Fatal("clone must be a deep copy")
	}
	c.Kids[1].Storage = "other.r"
	if e.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
}

func TestEqualDiscriminates(t *testing.T) {
	cases := []struct{ a, b *Expr }{
		{NewConst(1, 8), NewConst(2, 8)},
		{NewConst(1, 8), NewConst(1, 16)},
		{NewConst(1, 8), NewRead("x", 8, nil)},
		{NewRead("x", 8, nil), NewRead("y", 8, nil)},
		{NewPort("a", 8), NewPort("b", 8)},
		{NewInsnField(7, 0), NewInsnField(7, 1)},
		{NewOp(OpAdd, 8, NewConst(1, 8), NewConst(2, 8)),
			NewOp(OpSub, 8, NewConst(1, 8), NewConst(2, 8))},
		{NewRead("m", 8, NewConst(0, 4)), NewRead("m", 8, nil)},
	}
	for i, c := range cases {
		if c.a.Equal(c.b) {
			t.Errorf("case %d: distinct trees reported equal: %s vs %s", i, c.a, c.b)
		}
	}
}

func TestWalkAndCollectors(t *testing.T) {
	e := sampleTree()
	count := 0
	e.Walk(func(*Expr) { count++ })
	if count != e.Size() {
		t.Errorf("Walk visited %d nodes, Size = %d", count, e.Size())
	}
	fields := e.InsnFields()
	if len(fields) != 1 || fields[0].Hi != 7 || fields[0].Lo != 0 {
		t.Errorf("InsnFields = %v", fields)
	}
}

func TestAddr(t *testing.T) {
	r := NewRead("ram.m", 16, NewInsnField(7, 0))
	if r.Addr() == nil || r.Addr().Kind != InsnField {
		t.Fatal("Addr missing")
	}
	if NewRead("acc.r", 16, nil).Addr() != nil {
		t.Fatal("plain register read must have nil Addr")
	}
	if NewConst(0, 1).Addr() != nil {
		t.Fatal("non-read Addr must be nil")
	}
}

func TestTemplateString(t *testing.T) {
	m := bdd.New()
	tpl := &Template{
		Dest:  "acc.r",
		Src:   NewRead("ram.m", 16, NewInsnField(7, 0)),
		Cond:  ExecCond{Static: m.True()},
		Width: 16,
	}
	if got := tpl.String(); got != "acc.r := ram.m[IW[7:0]]" {
		t.Errorf("String = %q", got)
	}
	tpl2 := &Template{
		Dest:     "ram.m",
		DestAddr: NewInsnField(7, 0),
		Src:      NewRead("acc.r", 16, nil),
		Cond: ExecCond{Static: m.True(),
			Dynamic: []*Expr{NewOp(OpEq, 1, NewRead("z.r", 1, nil), NewConst(1, 1))}},
	}
	got := tpl2.String()
	if !strings.Contains(got, "ram.m[IW[7:0]] := acc.r") || !strings.Contains(got, "when") {
		t.Errorf("String = %q", got)
	}
}

func TestBaseDedup(t *testing.T) {
	m := bdd.New()
	b := NewBase(m)
	x, y := m.Var(0), m.Var(1)
	t1 := &Template{Dest: "acc.r", Src: NewRead("b.r", 16, nil),
		Cond: ExecCond{Static: x}, Width: 16}
	t2 := &Template{Dest: "acc.r", Src: NewRead("b.r", 16, nil),
		Cond: ExecCond{Static: y}, Width: 16}
	c1 := b.Add(t1)
	c2 := b.Add(t2)
	if c1 != c2 {
		t.Fatal("identical transfers must merge")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	if c1.Cond.Static != m.Or(x, y) {
		t.Fatal("merged condition must be the disjunction")
	}
	// A different transfer stays separate.
	t3 := &Template{Dest: "acc.r", Src: NewRead("c.r", 16, nil),
		Cond: ExecCond{Static: x}, Width: 16}
	b.Add(t3)
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if got := b.Destinations(); len(got) != 1 || got[0] != "acc.r" {
		t.Fatalf("Destinations = %v", got)
	}
}

func TestBaseDynamicGuardsKeptSeparate(t *testing.T) {
	m := bdd.New()
	b := NewBase(m)
	g := NewOp(OpEq, 1, NewRead("z.r", 1, nil), NewConst(1, 1))
	t1 := &Template{Dest: "pc.r", Src: NewInsnField(7, 0),
		Cond: ExecCond{Static: m.Var(0)}}
	t2 := &Template{Dest: "pc.r", Src: NewInsnField(7, 0),
		Cond: ExecCond{Static: m.Var(1), Dynamic: []*Expr{g}}}
	b.Add(t1)
	b.Add(t2)
	if b.Len() != 2 {
		t.Fatalf("guarded and unguarded jump merged; Len = %d", b.Len())
	}
}

// TestBaseIDsAndString numbers swaps together with templates, renders
// them swapped, and visits every entry in ID order.
func TestBaseIDsAndString(t *testing.T) {
	m := bdd.New()
	b := NewBase(m)
	add := NewOp(OpAdd, 8, NewRead("a.r", 8, nil), NewRead("b.r", 8, nil))
	t0 := b.Add(&Template{Dest: "a.r", Src: add, Cond: ExecCond{Static: m.True()}})
	b.AddSwap(t0, 1)
	t2 := b.Add(&Template{Dest: "b.r", Src: NewConst(0, 8), Cond: ExecCond{Static: m.True()}})
	if b.Len() != 3 || t0.ID != 0 || b.Swaps[0].ID != 1 || t2.ID != 2 {
		t.Fatalf("IDs not sequential: Len %d, IDs %d, %d, %d", b.Len(), t0.ID, b.Swaps[0].ID, t2.ID)
	}
	want := "   0: a.r := (a.r + b.r)\n   1: a.r := (b.r + a.r)\n   2: b.r := 0\n"
	if got := b.String(); got != want {
		t.Errorf("base rendering wrong:\n%s\nwant:\n%s", got, want)
	}
	var ids []int
	b.Each(func(s Swap) { ids = append(ids, s.ID) })
	if fmt.Sprint(ids) != "[0 1 2]" {
		t.Errorf("Each visits %v", ids)
	}
}

// swapped builds e with the operands of the swap sites selected by mask
// exchanged, numbering sites in pre-order from *site.
func swapped(e *Expr, mask uint64, site *int) *Expr {
	c := *e
	swap := false
	if e.SwapSite() {
		swap = mask&(1<<uint(*site)) != 0
		*site++
	}
	c.Kids = make([]*Expr, len(e.Kids))
	for i, k := range e.Kids {
		c.Kids[i] = swapped(k, mask, site)
	}
	if swap {
		c.Kids[0], c.Kids[1] = c.Kids[1], c.Kids[0]
	}
	return &c
}

// TestRenderSwapMatchesSwappedTree renders a tree with swap sites under
// operators, in a memory address and under a non-commutative operator,
// under every mask, against the tree with those operands exchanged.
func TestRenderSwapMatchesSwappedTree(t *testing.T) {
	r := func(s string) *Expr { return NewRead(s, 8, nil) }
	addr := NewOp(OpAdd, 8, r("x.r"), NewConst(1, 8))
	e := NewOp(OpSub, 8,
		NewOp(OpMul, 8, NewOp(OpAdd, 8, r("a.r"), r("b.r")), NewOp(OpAnd, 8, r("c.r"), NewRead("m.m", 8, addr))),
		NewOp(OpXor, 8, NewOp(OpNeg, 8, r("d.r")), NewSlice(3, 0, NewOp(OpOr, 8, r("e.r"), r("f.r")))))
	if n := e.SwapSites(); n != 6 {
		t.Fatalf("%d swap sites in %s, want 6", n, e)
	}
	for mask := uint64(0); mask < 1<<6; mask++ {
		var b strings.Builder
		e.RenderSwap(&b, mask)
		site := 0
		if want := swapped(e, mask, &site).String(); b.String() != want {
			t.Errorf("mask %#x renders %s, want %s", mask, b.String(), want)
		}
	}
}

// TestClassHash gives every commuted form of a tree its class, and only
// those: a non-commutative operator's operands and node widths count.  A
// commutative operator with operands of one class is not distinct.
func TestClassHash(t *testing.T) {
	r := func(s string) *Expr { return NewRead(s, 8, nil) }
	e := NewOp(OpMul, 8, NewOp(OpAdd, 8, r("a.r"), r("b.r")), NewOp(OpSub, 8, r("c.r"), NewConst(1, 8)))
	class, distinct := e.ClassHash()
	if !distinct {
		t.Errorf("%s not distinct", e)
	}
	for mask := uint64(0); mask < 1<<2; mask++ {
		site := 0
		s := swapped(e, mask, &site)
		if c, _ := s.ClassHash(); c != class {
			t.Errorf("%s: class %#x, want %s's %#x", s, c, e, class)
		}
	}
	for _, o := range []*Expr{
		NewOp(OpMul, 8, NewOp(OpAdd, 8, r("a.r"), r("b.r")), NewOp(OpSub, 8, NewConst(1, 8), r("c.r"))),
		NewOp(OpMul, 8, NewOp(OpAdd, 8, r("a.r"), r("b.r")), NewOp(OpSub, 8, r("c.r"), NewConst(1, 4))),
	} {
		if c, _ := o.ClassHash(); c == class {
			t.Errorf("%s shares %s's class", o, e)
		}
	}
	if _, distinct := NewOp(OpMul, 8, e, NewOp(OpMul, 8, NewOp(OpSub, 8, r("c.r"), NewConst(1, 8)), NewOp(OpAdd, 8, r("b.r"), r("a.r")))).ClassHash(); distinct {
		t.Error("operands of one class reported distinct")
	}
}
