package rtl

import (
	"math/rand"
	"testing"
)

// decodeTree builds a reference tree from fuzz bytes, consuming them as
// it goes; exhausted input reads as zeros, which decode to leaves.  Every
// kind appears, including raw (unfolded) slices and the fields that only
// some kinds compare.
func decodeTree(data *[]byte, depth int) *tree {
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
		return cnst(int64(int8(next())), w)
	case 1:
		return reg([]string{"a.r", "b.r"}[next()%2], w)
	case 2:
		return mem("m.m", w, decodeTree(data, 0))
	case 3:
		return port([]string{"p", "q"}[next()%2], w)
	case 4:
		lo := int(next() % 8)
		return field(lo+int(next()%8), lo)
	case 5:
		lo := int(next() % 4)
		return slice(lo+int(next()%4), lo, decodeTree(data, depth-1))
	case 6:
		return op([]Op{OpNeg, OpNot, OpPass}[next()%3], w, decodeTree(data, depth-1))
	}
	o := []Op{OpAdd, OpSub, OpMul, OpShl, OpEq}[next()%5]
	return op(o, w, decodeTree(data, depth-1), decodeTree(data, depth-1))
}

// checkCanonical checks that handle id of s holds reference tree e, read
// back by Expr and Kids, that it renders as e, and that building e again
// gives id.
func checkCanonical(t testing.TB, s *Store, e *tree, id ExprID) {
	t.Helper()
	if got := treeOf(s, id); !got.equal(e) {
		t.Fatalf("handle %d holds %s, built from %s", id, got, e)
	}
	if got := s.String(id); got != e.String() {
		t.Fatalf("handle %d of %s renders as %s", id, e, got)
	}
	if again := e.build(s); again != id {
		t.Fatalf("building %s again gives handle %d, first %d", e, again, id)
	}
}

// FuzzIntern builds two reference trees from the input into one store and
// checks that they get one handle iff they are equal, and that each
// handle holds and renders as its tree.
func FuzzIntern(f *testing.F) {
	f.Add([]byte{7, 1, 0, 0, 5, 7, 1, 0, 0, 5})
	f.Add([]byte{0x17, 2, 0x1f, 0, 0x12, 3, 0x17, 2, 0x1f, 0, 0x12, 3})
	f.Add([]byte{5, 1, 2, 6, 0, 1, 5, 1, 2, 6, 0, 2})
	f.Add([]byte{0, 255, 0x10, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := decodeTree(&data, 4)
		b := decodeTree(&data, 4)
		var s Store
		ia, ib := a.build(&s), b.build(&s)
		if (ia == ib) != a.equal(b) {
			t.Fatalf("handles %d, %d for %s and %s; equal = %v", ia, ib, a, b, a.equal(b))
		}
		checkCanonical(t, &s, a, ia)
		checkCanonical(t, &s, b, ib)
	})
}

// TestInternMatchesEqual checks on random reference trees that two get the
// same handle iff they are equal; TestInternMatchesEqualOnModels does the
// same over every bundled model's template trees.
func TestInternMatchesEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Store
	var trees []*tree
	var ids []ExprID
	for i := 0; i < 600; i++ {
		data := make([]byte, 24)
		for j := range data {
			// Few distinct bytes, so equal trees are common.
			data[j] = byte(rng.Intn(4)) | byte(rng.Intn(2))<<4
		}
		e := decodeTree(&data, 3)
		trees = append(trees, e)
		ids = append(ids, e.build(&s))
	}
	equalPairs := 0
	for i := range trees {
		checkCanonical(t, &s, trees[i], ids[i])
		for j := range trees {
			eq := trees[i].equal(trees[j])
			if (ids[i] == ids[j]) != eq {
				t.Fatalf("handles %d, %d for %s and %s; equal = %v", ids[i], ids[j], trees[i], trees[j], eq)
			}
			if eq && i != j {
				equalPairs++
			}
		}
	}
	if equalPairs == 0 {
		t.Fatal("no two random trees were equal; the property went unexercised")
	}
	if s.Expr(NoExpr) != nil {
		t.Fatal("NoExpr must have no head")
	}
}

// TestStoreGrowth builds more trees than the initial table holds, so the
// unique table grows, and checks every handle survives the rehash.
func TestStoreGrowth(t *testing.T) {
	var s Store
	for v := int64(0); v < 5000; v++ {
		if id := s.Const(v, 16); int(id) != int(v) {
			t.Fatalf("constant %d got handle %d", v, id)
		}
	}
	for v := int64(0); v < 5000; v++ {
		if id := s.Const(v, 16); int(id) != int(v) {
			t.Fatalf("constant %d rebuilt as %d", v, id)
		}
	}
	if s.Len() != 5000 || 4*s.Len() >= 3*len(s.slots) {
		t.Fatalf("%d trees in %d slots", s.Len(), len(s.slots))
	}
}
