package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	m := New()
	if m.True() == m.False() {
		t.Fatal("True and False must differ")
	}
	if !m.True().IsLeaf() || !m.False().IsLeaf() {
		t.Fatal("constants must be leaves")
	}
	if m.Const(true) != m.True() || m.Const(false) != m.False() {
		t.Fatal("Const mapping wrong")
	}
}

func TestVarBasics(t *testing.T) {
	m := New()
	x := m.Var(0)
	v, lo, hi := m.Top(x)
	if x.IsLeaf() || v != 0 {
		t.Fatalf("Var(0) malformed: var %d", v)
	}
	if lo != m.False() || hi != m.True() {
		t.Fatal("Var(0) cofactors wrong")
	}
	if v, lo, hi := m.Top(m.True()); v != -1 || lo != m.True() || hi != m.True() {
		t.Fatal("Top of a terminal must be (-1, n, n)")
	}
	if m.Var(0) != x {
		t.Fatal("hash-consing failed: Var(0) not canonical")
	}
	nx := m.NVar(0)
	if nx != m.Not(x) {
		t.Fatal("NVar must equal Not(Var)")
	}
}

func TestDeclareVar(t *testing.T) {
	m := New()
	a := m.DeclareVar("ir0")
	b := m.DeclareVar("ir1")
	if a != 0 || b != 1 {
		t.Fatalf("declaration order broken: %d %d", a, b)
	}
	if m.DeclareVar("ir0") != 0 {
		t.Fatal("re-declaration must return existing index")
	}
	if m.VarByName("ir1") != 1 || m.VarByName("nope") != -1 {
		t.Fatal("VarByName lookup wrong")
	}
	if m.VarName(0) != "ir0" {
		t.Fatalf("VarName(0) = %q", m.VarName(0))
	}
	if m.NumVars() != 2 {
		t.Fatalf("NumVars = %d", m.NumVars())
	}
}

func TestBasicAlgebra(t *testing.T) {
	m := New()
	x, y := m.Var(0), m.Var(1)
	if m.And(x, m.Not(x)) != m.False() {
		t.Error("x & !x != 0")
	}
	if m.Or(x, m.Not(x)) != m.True() {
		t.Error("x | !x != 1")
	}
	if m.And(x, y) != m.And(y, x) {
		t.Error("And not commutative")
	}
	if m.Or(x, y) != m.Or(y, x) {
		t.Error("Or not commutative")
	}
	if m.Xor(x, x) != m.False() {
		t.Error("x ^ x != 0")
	}
	if m.Xnor(x, y) != m.Not(m.Xor(x, y)) {
		t.Error("Xnor != !Xor")
	}
	if m.Implies(x, y) != m.Or(m.Not(x), y) {
		t.Error("Implies wrong")
	}
	if m.And() != m.True() || m.Or() != m.False() {
		t.Error("empty And/Or identities wrong")
	}
}

func TestDeMorgan(t *testing.T) {
	m := New()
	x, y, z := m.Var(0), m.Var(1), m.Var(2)
	lhs := m.Not(m.And(x, y, z))
	rhs := m.Or(m.Not(x), m.Not(y), m.Not(z))
	if lhs != rhs {
		t.Error("De Morgan (3-ary) violated")
	}
}

func TestRestrict(t *testing.T) {
	m := New()
	x, y := m.Var(0), m.Var(1)
	f := m.And(x, y)
	if m.Restrict(f, 0, true) != y {
		t.Error("(x&y)|x=1 should be y")
	}
	if m.Restrict(f, 0, false) != m.False() {
		t.Error("(x&y)|x=0 should be 0")
	}
	if m.Restrict(f, 1, true) != x {
		t.Error("(x&y)|y=1 should be x")
	}
	// Restricting a variable not in the support is the identity.
	if m.Restrict(f, 7, true) != f {
		t.Error("restrict of free variable changed function")
	}
}

func TestExists(t *testing.T) {
	m := New()
	x, y := m.Var(0), m.Var(1)
	f := m.And(x, y)
	if m.Exists(f, 0) != y {
		t.Error("∃x. x&y should be y")
	}
	g := m.Xor(x, y)
	if m.Exists(g, 0) != m.True() {
		t.Error("∃x. x^y should be 1")
	}
}

func TestAnySatAndEval(t *testing.T) {
	m := New()
	x, y, z := m.Var(0), m.Var(1), m.Var(2)
	f := m.And(x, m.Not(y), z)
	a, ok := m.AnySat(f)
	if !ok {
		t.Fatal("satisfiable function reported unsat")
	}
	if !m.Eval(f, a) {
		t.Fatalf("AnySat assignment %v does not satisfy f", a)
	}
	if _, ok := m.AnySat(m.False()); ok {
		t.Error("False reported satisfiable")
	}
	if a, ok := m.AnySat(m.True()); !ok || len(a) != 0 {
		t.Error("True should be satisfiable with empty assignment")
	}
}

func TestSatCount(t *testing.T) {
	m := New()
	x, y, z := m.Var(0), m.Var(1), m.Var(2)
	cases := []struct {
		f    Node
		want float64
	}{
		{m.True(), 8},
		{m.False(), 0},
		{x, 4},
		{m.And(x, y), 2},
		{m.And(x, y, z), 1},
		{m.Or(x, y), 6},
		{m.Xor(x, y), 4},
		{z, 4},
	}
	for i, c := range cases {
		if got := m.SatCount(c.f, 3); got != c.want {
			t.Errorf("case %d: SatCount = %v, want %v", i, got, c.want)
		}
	}
}

func TestSupport(t *testing.T) {
	m := New()
	x, z := m.Var(0), m.Var(2)
	f := m.And(x, z)
	s := m.Support(f)
	if len(s) != 2 || s[0] != 0 || s[1] != 2 {
		t.Fatalf("Support = %v, want [0 2]", s)
	}
	if len(m.Support(m.True())) != 0 {
		t.Error("constant support must be empty")
	}
}

func TestCube(t *testing.T) {
	m := New()
	f := m.Cube(map[int]bool{0: true, 2: false, 5: true})
	want := m.And(m.Var(0), m.Not(m.Var(2)), m.Var(5))
	if f != want {
		t.Fatal("Cube does not equal literal conjunction")
	}
	if m.Cube(nil) != m.True() {
		t.Error("empty cube must be True")
	}
}

func TestNodeCount(t *testing.T) {
	m := New()
	x, y := m.Var(0), m.Var(1)
	if m.NodeCount(m.True()) != 0 {
		t.Error("terminal node count must be 0")
	}
	if m.NodeCount(x) != 1 {
		t.Error("single-variable node count must be 1")
	}
	f := m.Xor(x, y)
	if m.NodeCount(f) != 3 {
		t.Errorf("xor node count = %d, want 3", m.NodeCount(f))
	}
}

func TestStringRendering(t *testing.T) {
	m := New()
	m.DeclareVar("a")
	m.DeclareVar("b")
	if s := m.String(m.True()); s != "1" {
		t.Errorf("String(True) = %q", s)
	}
	if s := m.String(m.False()); s != "0" {
		t.Errorf("String(False) = %q", s)
	}
	got := m.String(m.And(m.Var(0), m.Var(1)))
	if got != "a&b" {
		t.Errorf("String(a&b) = %q", got)
	}
}

// randomExpr builds a random Boolean function over nvars variables together
// with a reference truth-table evaluator, used for property testing.
type boolFn func(assign uint) bool

func randomExpr(m *Manager, rng *rand.Rand, nvars, depth int) (Node, boolFn) {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return m.True(), func(uint) bool { return true }
		case 1:
			return m.False(), func(uint) bool { return false }
		default:
			v := rng.Intn(nvars)
			return m.Var(v), func(a uint) bool { return a&(1<<uint(v)) != 0 }
		}
	}
	l, lf := randomExpr(m, rng, nvars, depth-1)
	r, rf := randomExpr(m, rng, nvars, depth-1)
	switch rng.Intn(4) {
	case 0:
		return m.And(l, r), func(a uint) bool { return lf(a) && rf(a) }
	case 1:
		return m.Or(l, r), func(a uint) bool { return lf(a) || rf(a) }
	case 2:
		return m.Xor(l, r), func(a uint) bool { return lf(a) != rf(a) }
	default:
		return m.Not(l), func(a uint) bool { return !lf(a) }
	}
}

// TestPropTruthTable checks that random BDDs agree with a direct truth-table
// evaluation of the same expression on every assignment.
func TestPropTruthTable(t *testing.T) {
	const nvars = 5
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := New()
		f, ref := randomExpr(m, rng, nvars, 4)
		for a := uint(0); a < 1<<nvars; a++ {
			assign := make(map[int]bool)
			for v := 0; v < nvars; v++ {
				assign[v] = a&(1<<uint(v)) != 0
			}
			if m.Eval(f, assign) != ref(a) {
				t.Fatalf("trial %d: BDD disagrees with reference at %05b", trial, a)
			}
		}
	}
}

// TestPropCanonicity: semantically equal random expressions built through
// different operator decompositions must get the same handle.
func TestPropCanonicity(t *testing.T) {
	m := New()
	f := func(xv, yv, zv bool) bool {
		x, y, z := m.Const(xv), m.Const(yv), m.Const(zv)
		// Trivial on constants, but exercised symbolically below.
		_ = z
		return m.And(x, y) == m.Not(m.Or(m.Not(x), m.Not(y)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Symbolic canonicity over random functions.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		g, _ := randomExpr(m, rng, 4, 4)
		h, _ := randomExpr(m, rng, 4, 4)
		// (g -> h) == (!g | h) must be the same handle.
		if m.Implies(g, h) != m.Or(m.Not(g), h) {
			t.Fatalf("trial %d: implication decomposition not canonical", trial)
		}
		// Double negation.
		if m.Not(m.Not(g)) != g {
			t.Fatalf("trial %d: double negation not identity", trial)
		}
		// Shannon expansion: g == ite(x0, g|x0=1, g|x0=0).
		x0 := m.Var(0)
		if m.Ite(x0, m.Restrict(g, 0, true), m.Restrict(g, 0, false)) != g {
			t.Fatalf("trial %d: Shannon expansion violated", trial)
		}
	}
}

// TestPropSatCountMatchesEnumeration cross-checks SatCount against explicit
// enumeration for random functions.
func TestPropSatCountMatchesEnumeration(t *testing.T) {
	const nvars = 5
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		m := New()
		f, _ := randomExpr(m, rng, nvars, 4)
		count := 0
		for a := uint(0); a < 1<<nvars; a++ {
			assign := make(map[int]bool)
			for v := 0; v < nvars; v++ {
				assign[v] = a&(1<<uint(v)) != 0
			}
			if m.Eval(f, assign) {
				count++
			}
		}
		if got := m.SatCount(f, nvars); got != float64(count) {
			t.Fatalf("trial %d: SatCount = %v, enumeration = %d", trial, got, count)
		}
	}
}

// TestPropAnySatSound: AnySat results always satisfy the function.
func TestPropAnySatSound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		m := New()
		f, _ := randomExpr(m, rng, 6, 5)
		a, ok := m.AnySat(f)
		if ok != m.Sat(f) {
			t.Fatalf("trial %d: AnySat ok=%v but Sat=%v", trial, ok, m.Sat(f))
		}
		if ok && !m.Eval(f, a) {
			t.Fatalf("trial %d: AnySat assignment does not satisfy", trial)
		}
	}
}

// TestPropExistsIsDisjunction: ∃v.f == f|v=0 | f|v=1, and quantifying a
// variable removes it from the support.
func TestPropExistsIsDisjunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		m := New()
		f, _ := randomExpr(m, rng, 4, 4)
		for v := 0; v < 4; v++ {
			q := m.Exists(f, v)
			if q != m.Or(m.Restrict(f, v, false), m.Restrict(f, v, true)) {
				t.Fatalf("trial %d: Exists mismatch for var %d", trial, v)
			}
			for _, s := range m.Support(q) {
				if s == v {
					t.Fatalf("trial %d: var %d still in support after Exists", trial, v)
				}
			}
		}
	}
}

// TestLossyCacheCanonicity pins one manager's operation cache to a single
// entry, so nearly every Ite misses and recomputes, and builds the same
// random expressions as a manager with the default cache.  The exact
// unique table must hand back the same handle for every result, create
// nodes in the same order, and every result must match its truth table.
func TestLossyCacheCanonicity(t *testing.T) {
	const nvars = 8
	def, tiny := New(), New()
	tiny.memo = opCache{entries: make([]cacheEntry, 1), pinned: true}
	rngDef, rngTiny := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		want, _ := randomExpr(def, rngDef, nvars, 6)
		got, ref := randomExpr(tiny, rngTiny, nvars, 6)
		if got != want {
			t.Fatalf("trial %d: one-entry cache gave handle %d, default cache %d", trial, got, want)
		}
		for a := uint(0); a < 1<<nvars; a++ {
			assign := make(map[int]bool, nvars)
			for v := 0; v < nvars; v++ {
				assign[v] = a&(1<<uint(v)) != 0
			}
			if tiny.Eval(got, assign) != ref(a) {
				t.Fatalf("trial %d: one-entry-cache BDD disagrees with reference at %08b", trial, a)
			}
		}
	}
	if def.Size() != tiny.Size() {
		t.Fatalf("managers hold %d and %d nodes; recomputation created nodes", def.Size(), tiny.Size())
	}
	if len(tiny.memo.entries) != 1 {
		t.Fatalf("pinned cache grew to %d entries", len(tiny.memo.entries))
	}
}

// TestUniqueTableGrowth builds more than 2^16 nodes, so the unique table
// doubles many times, and checks that every node is still found at its
// own handle and that rebuilding every function creates nothing new.
func TestUniqueTableGrowth(t *testing.T) {
	const nvars = 24
	m := New()
	rng := rand.New(rand.NewSource(3))
	var cubes [][]Lit
	var handles []Node
	for m.Size() <= 1<<16+1000 {
		val := rng.Uint32()
		lits := make([]Lit, nvars)
		for v := range lits {
			lits[v] = Lit{Var: v, Val: val&(1<<uint(v)) != 0}
		}
		cubes = append(cubes, lits)
		handles = append(handles, m.CubeLits(lits))
	}
	if len(m.store.slots) < 1<<17 {
		t.Fatalf("unique table has %d slots for %d nodes; it did not grow", len(m.store.slots), m.Size())
	}
	if 4*len(m.store.nodes) >= 3*len(m.store.slots) {
		t.Fatalf("unique table over ¾ load: %d nodes, %d slots", len(m.store.nodes), len(m.store.slots))
	}
	for n := Node(2); int(n) < m.Size(); n++ {
		x := m.store.nodes[n]
		if _, got := m.store.find(x.v, x.lo, x.hi); got != n {
			t.Fatalf("node %d found as %d after growth", n, got)
		}
	}
	size := m.Size()
	for i, lits := range cubes {
		if m.CubeLits(lits) != handles[i] {
			t.Fatalf("cube %d rebuilt as a different handle", i)
		}
	}
	if m.Size() != size {
		t.Fatalf("rebuilding created %d nodes", m.Size()-size)
	}
	// The same functions through Ite (the cache is cold for them) also
	// land on the existing handles.
	for i := 0; i < 200; i++ {
		want := handles[i]
		got := m.True()
		for _, l := range cubes[i] {
			lit := m.Var(l.Var)
			if !l.Val {
				lit = m.Not(lit)
			}
			got = m.And(got, lit)
		}
		if got != want {
			t.Fatalf("cube %d built with And is handle %d, CubeLits gave %d", i, got, want)
		}
	}
}

func BenchmarkIteDense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := New()
		// n-queens-flavored dense constraint: pairwise xor chain.
		f := m.True()
		for v := 0; v < 16; v++ {
			f = m.And(f, m.Xor(m.Var(v), m.Var((v+1)%16)))
		}
		_ = m.SatCount(f, 16)
	}
}
