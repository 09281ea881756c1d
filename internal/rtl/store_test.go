package rtl

import (
	"math/rand"
	"testing"
)

// decodeTree builds an expression from fuzz bytes, consuming them as it
// goes; exhausted input reads as zeros, which decode to leaves.  Every
// kind appears, including raw (unfolded) slices and the fields that only
// some kinds compare.
func decodeTree(data *[]byte, depth int) *Expr {
	next := func() byte {
		if len(*data) == 0 {
			return 0
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return b
	}
	widths := []int{1, 8, 16}
	b := next()
	w := widths[int(b>>4)%len(widths)]
	kind := b % 8
	if depth == 0 && kind >= 5 {
		kind %= 5
	}
	switch kind {
	case 0:
		return NewConst(int64(int8(next())), w)
	case 1:
		return NewRead([]string{"a.r", "b.r"}[next()%2], w, nil)
	case 2:
		return NewRead("m.m", w, decodeTree(data, 0))
	case 3:
		return NewPort([]string{"p", "q"}[next()%2], w)
	case 4:
		lo := int(next() % 8)
		return NewInsnField(lo+int(next()%8), lo)
	case 5:
		lo := int(next() % 4)
		hi := lo + int(next()%4)
		return &Expr{Kind: Slice, Lo: lo, Hi: hi, Width: hi - lo + 1, Kids: []*Expr{decodeTree(data, depth-1)}}
	case 6:
		return NewOp([]Op{OpNeg, OpNot, OpPass}[next()%3], w, decodeTree(data, depth-1))
	}
	op := []Op{OpAdd, OpSub, OpMul, OpShl, OpEq}[next()%5]
	return NewOp(op, w, decodeTree(data, depth-1), decodeTree(data, depth-1))
}

// checkCanonical checks that id's canonical tree renders and compares
// like e, that every kid of it is itself the canonical tree of its
// handle, so equal subtrees share a pointer, and that Kids gives each
// node's kids by handle.
func checkCanonical(t testing.TB, s *Store, e *Expr, id ExprID) {
	t.Helper()
	c := s.Expr(id)
	if !c.Equal(e) || c.String() != e.String() {
		t.Fatalf("canonical tree of %s is %s", e, c)
	}
	c.Walk(func(n *Expr) {
		kids := s.Kids(s.Intern(n))
		if len(kids) != len(n.Kids) {
			t.Fatalf("%s has %d kids, the store records %d", n, len(n.Kids), len(kids))
		}
		for i, k := range n.Kids {
			if s.Expr(s.Intern(k)) != k {
				t.Fatalf("kid %s of canonical %s is not canonical", k, c)
			}
			if s.Expr(kids[i]) != k {
				t.Fatalf("kid %d of %s is %s by handle", i, n, s.Expr(kids[i]))
			}
		}
	})
}

// FuzzIntern interns two trees built from the input and checks that they
// get one handle iff they are Equal, and that each canonical tree renders
// as its input.
func FuzzIntern(f *testing.F) {
	f.Add([]byte{7, 1, 0, 0, 5, 7, 1, 0, 0, 5})
	f.Add([]byte{0x17, 2, 0x1f, 0, 0x12, 3, 0x17, 2, 0x1f, 0, 0x12, 3})
	f.Add([]byte{5, 1, 2, 6, 0, 1, 5, 1, 2, 6, 0, 2})
	f.Add([]byte{0, 255, 0x10, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := decodeTree(&data, 4)
		b := decodeTree(&data, 4)
		var s Store
		ia, ib := s.Intern(a), s.Intern(b)
		if (ia == ib) != a.Equal(b) {
			t.Fatalf("handles %d, %d for %s and %s; Equal = %v", ia, ib, a, b, a.Equal(b))
		}
		checkCanonical(t, &s, a, ia)
		checkCanonical(t, &s, b, ib)
		if s.Intern(s.Expr(ia)) != ia || s.Intern(a) != ia {
			t.Fatalf("re-interning %s changed its handle", a)
		}
	})
}

// TestInternMatchesEqual checks on random trees that two trees get the
// same handle iff they are Equal; TestInternMatchesEqualOnModels does the
// same over every bundled model's template sources.
func TestInternMatchesEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Store
	var trees []*Expr
	var ids []ExprID
	for i := 0; i < 600; i++ {
		data := make([]byte, 24)
		for j := range data {
			// Few distinct bytes, so equal trees are common.
			data[j] = byte(rng.Intn(4)) | byte(rng.Intn(2))<<4
		}
		e := decodeTree(&data, 3)
		trees = append(trees, e)
		ids = append(ids, s.Intern(e))
	}
	equalPairs := 0
	for i := range trees {
		checkCanonical(t, &s, trees[i], ids[i])
		for j := range trees {
			eq := trees[i].Equal(trees[j])
			if (ids[i] == ids[j]) != eq {
				t.Fatalf("handles %d, %d for %s and %s; Equal = %v", ids[i], ids[j], trees[i], trees[j], eq)
			}
			if eq && i != j {
				equalPairs++
			}
		}
	}
	if equalPairs == 0 {
		t.Fatal("no two random trees were equal; the property went unexercised")
	}
	if s.Intern(nil) != NoExpr || s.Expr(NoExpr) != nil {
		t.Fatal("nil must intern as NoExpr")
	}
}

// TestStoreGrowth interns more trees than the initial table holds, so the
// unique table grows, and checks every handle survives the rehash.
func TestStoreGrowth(t *testing.T) {
	var s Store
	for v := int64(0); v < 5000; v++ {
		if id := s.Intern(NewConst(v, 16)); int(id) != int(v) {
			t.Fatalf("constant %d got handle %d", v, id)
		}
	}
	for v := int64(0); v < 5000; v++ {
		if id := s.Intern(NewConst(v, 16)); int(id) != int(v) {
			t.Fatalf("constant %d re-interned as %d", v, id)
		}
	}
	if s.Len() != 5000 || 4*s.Len() >= 3*len(s.slots) {
		t.Fatalf("%d trees in %d slots", s.Len(), len(s.slots))
	}
}
