package rtl

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

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

func sampleTree() *tree {
	// acc := (ram[IW[7:0]] * t) + acc   — a MAC-shaped template source
	return op(OpAdd, 16,
		op(OpMul, 16,
			mem("ram.m", 16, field(7, 0)),
			reg("t.r", 16)),
		reg("acc.r", 16))
}

func TestExprString(t *testing.T) {
	var s Store
	want := "((ram.m[IW[7:0]] * t.r) + acc.r)"
	if got := s.String(sampleTree().build(&s)); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	for e, want := range map[*tree]string{
		field(3, 3):                             "IW[3]",
		cnst(42, 8):                             "42",
		port("in0", 16):                         "in0",
		op(OpNeg, 16, cnst(1, 16)):              "neg(1)",
		slice(3, 0, port("in0", 16)):            "in0[3:0]",
		mem("m.m", 8, cnst(2, 4)):               "m.m[2]",
		op(OpShl, 8, reg("a.r", 8), cnst(1, 8)): "(a.r << 1)",
	} {
		if got := s.String(e.build(&s)); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	if got := s.String(NoExpr); got != "<nil>" {
		t.Errorf("String(NoExpr) = %q", got)
	}
}

// TestEqualDiscriminates builds pairs of trees that differ in one field
// each and checks that they get distinct handles.
func TestEqualDiscriminates(t *testing.T) {
	cases := []struct{ a, b *tree }{
		{cnst(1, 8), cnst(2, 8)},
		{cnst(1, 8), cnst(1, 16)},
		{cnst(1, 8), reg("x", 8)},
		{reg("x", 8), reg("y", 8)},
		{port("a", 8), port("b", 8)},
		{field(7, 0), field(7, 1)},
		{op(OpAdd, 8, cnst(1, 8), cnst(2, 8)), op(OpSub, 8, cnst(1, 8), cnst(2, 8))},
		{op(OpAdd, 8, cnst(1, 8), cnst(2, 8)), op(OpAdd, 8, cnst(2, 8), cnst(1, 8))},
		{mem("m", 8, cnst(0, 4)), reg("m", 8)},
		{slice(3, 0, reg("x", 8)), slice(4, 1, reg("x", 8))},
	}
	var s Store
	for i, c := range cases {
		if c.a.build(&s) == c.b.build(&s) {
			t.Errorf("case %d: distinct trees share a handle: %s vs %s", i, c.a, c.b)
		}
	}
}

func TestAddr(t *testing.T) {
	var s Store
	r := mem("ram.m", 16, field(7, 0)).build(&s)
	if a := s.Addr(r); a == NoExpr || s.Expr(a).Kind != InsnField {
		t.Fatal("Addr missing")
	}
	if s.Addr(reg("acc.r", 16).build(&s)) != NoExpr {
		t.Fatal("plain register read must have no Addr")
	}
	if s.Addr(slice(3, 0, reg("acc.r", 16)).build(&s)) != NoExpr {
		t.Fatal("non-read Addr must be NoExpr")
	}
}

// TestSliceFolds checks that Store.Slice folds full-range slices,
// constants, instruction fields and nested slices, and builds a raw
// slice otherwise.
func TestSliceFolds(t *testing.T) {
	var s Store
	x := reg("x.r", 16).build(&s)
	for _, c := range []struct {
		got  ExprID
		want *tree
	}{
		{s.Slice(15, 0, x), reg("x.r", 16)},
		{s.Slice(7, 4, s.Const(0x5a, 16)), cnst(5, 4)},
		{s.Slice(3, 0, field(11, 4).build(&s)), field(7, 4)},
		{s.Slice(1, 0, s.Slice(7, 4, x)), slice(5, 4, reg("x.r", 16))},
		{s.Slice(7, 4, x), slice(7, 4, reg("x.r", 16))},
	} {
		if got := treeOf(&s, c.got); !got.equal(c.want) {
			t.Errorf("slice folds to %s, want %s", got, c.want)
		}
	}
}

// TestReplaceAt replaces the subtree at every pre-order position of a
// tree and checks the result against the reference tree with that node
// replaced.
func TestReplaceAt(t *testing.T) {
	var s Store
	e := sampleTree()
	h, repl := e.build(&s), cnst(9, 16)
	var nodes []**tree
	var collect func(p **tree)
	collect = func(p **tree) {
		nodes = append(nodes, p)
		for i := range (*p).kids {
			collect(&(*p).kids[i])
		}
	}
	for pos := 0; ; pos++ {
		c := treeOf(&s, h) // a fresh copy to edit
		nodes = nodes[:0]
		collect(&c)
		if pos == len(nodes) {
			break
		}
		*nodes[pos] = repl
		if got := s.ReplaceAt(h, pos, repl.build(&s)); !treeOf(&s, got).equal(c) {
			t.Errorf("position %d: got %s, want %s", pos, s.String(got), c)
		}
	}
	if got := s.ReplaceAt(h, 6, s.Const(1, 1)); got != h {
		t.Errorf("a position past the tree changed it to %s", s.String(got))
	}
}

// TestExprHoldsNoPointer keeps Expr a head: no field, however nested, may
// be a *Expr or a []*Expr, so a tree exists only as a handle into a
// Store.
func TestExprHoldsNoPointer(t *testing.T) {
	node, kids := reflect.TypeOf((*Expr)(nil)), reflect.TypeOf([]*Expr(nil))
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch {
		case typ == node || typ == kids:
			t.Errorf("%s is a %s: a tree is a handle into a Store", path, typ)
		case typ.Kind() == reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case typ.Kind() == reflect.Array:
			check(path+"[]", typ.Elem())
		}
	}
	check("Expr", reflect.TypeOf(Expr{}))
}

// TestTemplateSize pins Template to the 96-byte size class: extraction
// allocates one per route.
func TestTemplateSize(t *testing.T) {
	if n := unsafe.Sizeof(Template{}); n > 96 {
		t.Errorf("Template is %d bytes, want at most 96", n)
	}
}

func TestTemplateString(t *testing.T) {
	m := bdd.New()
	b := NewBase(m)
	s := b.Exprs()
	tpl := b.Add(&Template{
		Dest:     "acc.r",
		DestAddr: NoExpr,
		Src:      mem("ram.m", 16, field(7, 0)).build(s),
		Cond:     ExecCond{Static: m.True()},
		Width:    16,
	})
	if got := tpl.String(); got != "acc.r := ram.m[IW[7:0]]" {
		t.Errorf("String = %q", got)
	}
	tpl2 := b.Add(&Template{
		Dest:     "ram.m",
		DestAddr: field(7, 0).build(s),
		Src:      reg("acc.r", 16).build(s),
		Cond: ExecCond{Static: m.True(),
			Dynamic: []ExprID{op(OpEq, 1, reg("z.r", 1), cnst(1, 1)).build(s)}},
	})
	if got, want := tpl2.String(), "ram.m[IW[7:0]] := acc.r when (z.r == 1)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestBaseDedup(t *testing.T) {
	m := bdd.New()
	b := NewBase(m)
	s := b.Exprs()
	x, y := m.Var(0), m.Var(1)
	t1 := &Template{Dest: "acc.r", DestAddr: NoExpr, Src: reg("b.r", 16).build(s),
		Cond: ExecCond{Static: x}, Width: 16}
	t2 := &Template{Dest: "acc.r", DestAddr: NoExpr, Src: reg("b.r", 16).build(s),
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
	t3 := &Template{Dest: "acc.r", DestAddr: NoExpr, Src: reg("c.r", 16).build(s),
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
	s := b.Exprs()
	g := op(OpEq, 1, reg("z.r", 1), cnst(1, 1)).build(s)
	t1 := &Template{Dest: "pc.r", DestAddr: NoExpr, Src: field(7, 0).build(s),
		Cond: ExecCond{Static: m.Var(0)}}
	t2 := &Template{Dest: "pc.r", DestAddr: NoExpr, Src: field(7, 0).build(s),
		Cond: ExecCond{Static: m.Var(1), Dynamic: []ExprID{g}}}
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
	s := b.Exprs()
	add := op(OpAdd, 8, reg("a.r", 8), reg("b.r", 8)).build(s)
	t0 := b.Add(&Template{Dest: "a.r", DestAddr: NoExpr, Src: add, Cond: ExecCond{Static: m.True()}})
	b.AddSwap(t0, 1)
	t2 := b.Add(&Template{Dest: "b.r", DestAddr: NoExpr, Src: s.Const(0, 8), Cond: ExecCond{Static: m.True()}})
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

// TestRenderSwapMatchesSwappedTree renders a tree with swap sites under
// operators, in a memory address and under a non-commutative operator,
// under every mask, against the reference tree with those operands
// exchanged.
func TestRenderSwapMatchesSwappedTree(t *testing.T) {
	r := func(s string) *tree { return reg(s, 8) }
	addr := op(OpAdd, 8, r("x.r"), cnst(1, 8))
	e := op(OpSub, 8,
		op(OpMul, 8, op(OpAdd, 8, r("a.r"), r("b.r")), op(OpAnd, 8, r("c.r"), mem("m.m", 8, addr))),
		op(OpXor, 8, op(OpNeg, 8, r("d.r")), slice(3, 0, op(OpOr, 8, r("e.r"), r("f.r")))))
	var s Store
	h := e.build(&s)
	if n := s.SwapSites(h); n != 6 {
		t.Fatalf("%d swap sites in %s, want 6", n, e)
	}
	for mask := uint64(0); mask < 1<<6; mask++ {
		var b strings.Builder
		s.RenderSwap(&b, h, mask)
		site := 0
		if want := e.swapped(mask, &site).String(); b.String() != want {
			t.Errorf("mask %#x renders %s, want %s", mask, b.String(), want)
		}
	}
}

// TestClassHash gives every commuted form of a tree its class, and only
// those: a non-commutative operator's operands and node widths count.  A
// commutative operator with operands of one class is not distinct.
func TestClassHash(t *testing.T) {
	r := func(s string) *tree { return reg(s, 8) }
	var s Store
	e := op(OpMul, 8, op(OpAdd, 8, r("a.r"), r("b.r")), op(OpSub, 8, r("c.r"), cnst(1, 8)))
	class, distinct := s.ClassHash(e.build(&s))
	if !distinct {
		t.Errorf("%s not distinct", e)
	}
	for mask := uint64(0); mask < 1<<2; mask++ {
		site := 0
		sw := e.swapped(mask, &site)
		if c, _ := s.ClassHash(sw.build(&s)); c != class {
			t.Errorf("%s: class %#x, want %s's %#x", sw, c, e, class)
		}
	}
	for _, o := range []*tree{
		op(OpMul, 8, op(OpAdd, 8, r("a.r"), r("b.r")), op(OpSub, 8, cnst(1, 8), r("c.r"))),
		op(OpMul, 8, op(OpAdd, 8, r("a.r"), r("b.r")), op(OpSub, 8, r("c.r"), cnst(1, 4))),
	} {
		if c, _ := s.ClassHash(o.build(&s)); c == class {
			t.Errorf("%s shares %s's class", o, e)
		}
	}
	same := op(OpMul, 8, e, op(OpMul, 8, op(OpSub, 8, r("c.r"), cnst(1, 8)), op(OpAdd, 8, r("b.r"), r("a.r"))))
	if _, distinct := s.ClassHash(same.build(&s)); distinct {
		t.Error("operands of one class reported distinct")
	}
}
