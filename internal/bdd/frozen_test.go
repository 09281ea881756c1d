package bdd

import (
	"fmt"
	"sync"
	"testing"
)

// buildManager declares n variables and some shared structure, so frozen
// lookups hit real content.
func buildManager(n int) (*Manager, []Node) {
	m := New()
	vars := make([]Node, n)
	for i := 0; i < n; i++ {
		vars[i] = m.Var(m.DeclareVar(fmt.Sprintf("x%d", i)))
	}
	return m, vars
}

func TestFrozenManagerPanicsOnMutation(t *testing.T) {
	m, vars := buildManager(4)
	conj := m.And(vars[0], vars[1]) // memoized pre-freeze
	m.Freeze()
	if !m.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}

	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on frozen manager did not panic", name)
			}
		}()
		f()
	}
	mustPanic("DeclareVar", func() { m.DeclareVar("fresh") })
	mustPanic("Ite", func() { m.Ite(vars[2], vars[3], m.False()) })

	// Read-only operations keep working on the frozen manager.
	if _, ok := m.AnySat(conj); !ok {
		t.Fatal("AnySat failed on frozen manager")
	}
	if got := m.DeclareVar("x1"); got != 1 {
		t.Fatalf("redeclaring existing var on frozen manager: got %d", got)
	}
}

func TestViewMatchesManagerSemantics(t *testing.T) {
	// Build the same functions on an unfrozen manager and via a View over
	// a frozen copy of the structure; results must agree via Eval.
	m, vars := buildManager(4)
	f := m.Or(m.And(vars[0], vars[1]), m.And(vars[2], m.Not(vars[3])))
	m.Freeze()
	v := m.NewView()
	g := v.Or(v.And(vars[0], vars[1]), v.And(vars[2], v.Not(vars[3])))

	for bits := 0; bits < 16; bits++ {
		assign := map[int]bool{}
		for i := 0; i < 4; i++ {
			assign[i] = bits&(1<<i) != 0
		}
		if m.Eval(f, assign) != viewEval(v, g, assign) {
			t.Fatalf("view disagrees with manager at assignment %04b", bits)
		}
	}
	// Functions already in the frozen base come back as the SAME node
	// (canonicity across the view boundary), which is what makes AnySat
	// answers identical serial vs parallel.
	h := v.And(vars[0], vars[1])
	h2 := m2And(m, vars[0], vars[1])
	if h != h2 {
		t.Fatal("view rebuilt a function that exists in the frozen base as a different node")
	}
}

// viewEval is Manager.Eval for a function that may hold overlay nodes.
func viewEval(v *View, f Node, assign map[int]bool) bool {
	for !f.IsLeaf() {
		if x := v.node(f); assign[int(x.v)] {
			f = x.hi
		} else {
			f = x.lo
		}
	}
	return f == v.True()
}

// m2And reads the pre-freeze conjunction out of the frozen manager's memo
// via a throwaway view (the manager itself panics on Ite post-freeze).
func m2And(m *Manager, a, b Node) Node {
	return m.NewView().And(a, b)
}

func TestNewViewRequiresFrozen(t *testing.T) {
	m, _ := buildManager(2)
	defer func() {
		if recover() == nil {
			t.Fatal("NewView on unfrozen manager did not panic")
		}
	}()
	m.NewView()
}

// TestConcurrentViews is the core race test: many goroutines build
// overlapping functions through private views over one frozen manager.
// Run under -race this proves reads of the frozen tables are safe with
// zero locks.
func TestConcurrentViews(t *testing.T) {
	m, vars := buildManager(8)
	// Pre-freeze structure shared by every view.
	base := m.And(vars[0], vars[1], vars[2])
	m.Freeze()

	const workers = 16
	var wg sync.WaitGroup
	results := make([]map[int]bool, workers)
	oks := make([]bool, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := m.NewView()
			f := base
			// Each worker conjoins the same extra literals in a
			// different order; canonicity makes the result identical.
			for i := 0; i < 5; i++ {
				idx := 3 + (w+i)%5
				f = v.And(f, vars[idx])
			}
			f = v.Or(f, v.And(v.Not(vars[0]), vars[7]))
			results[w], oks[w] = v.AnySat(f)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if oks[w] != oks[0] {
			t.Fatalf("worker %d satisfiability %t, worker 0 %t", w, oks[w], oks[0])
		}
		if fmt.Sprint(results[w]) != fmt.Sprint(results[0]) {
			t.Fatalf("worker %d AnySat %v, worker 0 %v", w, results[w], results[0])
		}
	}
}

// TestOverlaySizeCountsMemo checks that a view whose Ites all resolve to
// nodes already in the frozen base still reports the cache entries it
// retains: the base holds x_i ∧ x_{i+1} built as Ite(x_i, x_{i+1}, 0); the
// view asks for the swapped conjunctions, which are cache misses that
// create no node.
func TestOverlaySizeCountsMemo(t *testing.T) {
	const n = 64
	m, vars := buildManager(n)
	pairs := make([]Node, n-1)
	for i := range pairs {
		pairs[i] = m.And(vars[i], vars[i+1])
	}
	m.Freeze()
	v := m.NewView()
	for i := range pairs {
		if got := v.And(vars[i+1], vars[i]); got != pairs[i] {
			t.Fatalf("x%d ∧ x%d: view built a new node for a base function", i+1, i)
		}
	}
	if len(v.overlay.nodes) != 0 {
		t.Fatalf("view created %d overlay nodes; want 0", len(v.overlay.nodes))
	}
	filled, baseResults := 0, 0
	for _, e := range v.memo.entries {
		if e.f != v.False() {
			filled++
			if e.r < v.overlay.off {
				baseResults++
			}
		}
	}
	if baseResults == 0 {
		t.Fatal("view cache holds no entry whose result is a base node")
	}
	if v.memo.filled != filled {
		t.Fatalf("filled counter %d; the cache holds %d entries", v.memo.filled, filled)
	}
	if got, want := v.OverlaySize(), len(v.overlay.nodes)+filled; got != want {
		t.Fatalf("OverlaySize = %d; want %d (overlay nodes plus filled cache entries)", got, want)
	}
}

// TestViewHandles: AnySat, AnySatWalk and Cube through a view give the
// manager's answers for the same functions, whether the view's result is
// an overlay node or a base node.
func TestViewHandles(t *testing.T) {
	const n = 12
	build := func(and func(...Node) Node, or func(...Node) Node, not func(Node) Node,
		cube func(map[int]bool) Node, vars []Node) []Node {
		var out []Node
		for i := 0; i+2 < n; i++ {
			out = append(out,
				or(and(vars[i], not(vars[i+2])), and(vars[i+1], vars[(i+5)%n])),
				and(cube(map[int]bool{i: true, i + 1: false}), not(vars[(i+7)%n])))
		}
		return out
	}
	ref, rv := buildManager(n)
	want := build(ref.And, ref.Or, ref.Not, ref.Cube, rv)

	m, vars := buildManager(n)
	base := m.Or(m.And(vars[0], m.Not(vars[2])), m.And(vars[1], vars[5]))
	m.Freeze()
	v := m.NewView()
	got := build(v.And, v.Or, v.Not, v.Cube, vars)
	if got[0] != base {
		t.Fatal("a base function built through the view did not return the base handle")
	}
	overlay := 0
	for i, f := range got {
		if f >= v.overlay.off {
			overlay++
		}
		wa, wok := ref.AnySat(want[i])
		ga, gok := v.AnySat(f)
		if wok != gok || fmt.Sprint(wa) != fmt.Sprint(ga) {
			t.Fatalf("function %d: view AnySat %v,%t; manager %v,%t", i, ga, gok, wa, wok)
		}
		var walk []Lit
		v.AnySatWalk(f, func(va int, val bool) { walk = append(walk, Lit{va, val}) })
		var refWalk []Lit
		ref.AnySatWalk(want[i], func(va int, val bool) { refWalk = append(refWalk, Lit{va, val}) })
		if fmt.Sprint(walk) != fmt.Sprint(refWalk) {
			t.Fatalf("function %d: view AnySatWalk %v; manager %v", i, walk, refWalk)
		}
		if v.Cube(ga) != v.CubeLits(walk) {
			t.Fatalf("function %d: Cube and CubeLits of one path differ", i)
		}
	}
	if overlay == 0 {
		t.Fatal("no function landed in the overlay; the test exercises nothing")
	}
}
