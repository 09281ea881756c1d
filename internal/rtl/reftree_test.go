package rtl

import (
	"strconv"
	"strings"
)

// tree is the tests' own expression tree: a head over kid pointers.  The
// store's handles are checked against it, so it shares nothing with the
// store but Expr's fields, which its builders set only as far as the
// node's kind uses them.
type tree struct {
	Expr
	kids []*tree
}

func cnst(v int64, w int) *tree { return &tree{Expr: Expr{Kind: Const, Val: v, Width: w}} }
func reg(name string, w int) *tree {
	return &tree{Expr: Expr{Kind: Read, Storage: name, Width: w}}
}
func mem(name string, w int, addr *tree) *tree {
	return &tree{Expr{Kind: Read, Storage: name, Width: w}, []*tree{addr}}
}
func port(name string, w int) *tree { return &tree{Expr: Expr{Kind: PortRef, Port: name, Width: w}} }
func field(hi, lo int) *tree {
	return &tree{Expr: Expr{Kind: InsnField, Hi: hi, Lo: lo, Width: hi - lo + 1}}
}

// slice is a raw slice node: Store.Slice folds, the tree does not.
func slice(hi, lo int, kid *tree) *tree {
	return &tree{Expr{Kind: Slice, Hi: hi, Lo: lo, Width: hi - lo + 1}, []*tree{kid}}
}
func op(o Op, w int, kids ...*tree) *tree { return &tree{Expr{Kind: OpApp, Op: o, Width: w}, kids} }

// build builds t into s node by node and returns its handle.
func (t *tree) build(s *Store) ExprID {
	kids := make([]ExprID, len(t.kids))
	for i, k := range t.kids {
		kids[i] = k.build(s)
	}
	return s.Node(t.Expr, kids...)
}

// treeOf reads the tree of handle h back out of s.
func treeOf(s *Store, h ExprID) *tree {
	t := &tree{Expr: *s.Expr(h)}
	for _, k := range s.Kids(h) {
		t.kids = append(t.kids, treeOf(s, k))
	}
	return t
}

// equal compares two trees head by head and kid by kid.
func (t *tree) equal(o *tree) bool {
	if t.Expr != o.Expr || len(t.kids) != len(o.kids) {
		return false
	}
	for i, k := range t.kids {
		if !k.equal(o.kids[i]) {
			return false
		}
	}
	return true
}

// swapped returns t with the operands of the swap sites selected by mask
// exchanged, numbering sites in pre-order from *site.
func (t *tree) swapped(mask uint64, site *int) *tree {
	c := &tree{Expr: t.Expr}
	swap := false
	if t.Kind == OpApp && len(t.kids) == 2 && t.Op.Commutative() {
		swap = mask&(1<<uint(*site)) != 0
		*site++
	}
	for _, k := range t.kids {
		c.kids = append(c.kids, k.swapped(mask, site))
	}
	if swap {
		c.kids[0], c.kids[1] = c.kids[1], c.kids[0]
	}
	return c
}

// String renders t in Store.String's notation.
func (t *tree) String() string {
	var b strings.Builder
	t.render(&b)
	return b.String()
}

func (t *tree) render(b *strings.Builder) {
	switch t.Kind {
	case Const:
		b.WriteString(strconv.FormatInt(t.Val, 10))
	case PortRef:
		b.WriteString(t.Port)
	case InsnField:
		if t.Hi == t.Lo {
			b.WriteString("IW[" + strconv.Itoa(t.Lo) + "]")
		} else {
			b.WriteString("IW[" + strconv.Itoa(t.Hi) + ":" + strconv.Itoa(t.Lo) + "]")
		}
	case Read:
		b.WriteString(t.Storage)
		if len(t.kids) == 1 {
			b.WriteString("[")
			t.kids[0].render(b)
			b.WriteString("]")
		}
	case Slice:
		t.kids[0].render(b)
		b.WriteString("[" + strconv.Itoa(t.Hi) + ":" + strconv.Itoa(t.Lo) + "]")
	case OpApp:
		if len(t.kids) == 1 {
			b.WriteString(string(t.Op) + "(")
			t.kids[0].render(b)
			b.WriteString(")")
			return
		}
		b.WriteString("(")
		t.kids[0].render(b)
		b.WriteString(" " + string(t.Op) + " ")
		t.kids[1].render(b)
		b.WriteString(")")
	}
}
