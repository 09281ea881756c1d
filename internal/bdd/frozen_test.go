package bdd

import (
	"fmt"
	"sync"
	"testing"
)

// buildManager declares n variables and some shared structure, so frozen
// lookups hit real content.
func buildManager(n int) (*Manager, []*Node) {
	m := New()
	vars := make([]*Node, n)
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
		if m.Eval(f, assign) != m.Eval(g, assign) {
			t.Fatalf("view disagrees with manager at assignment %04b", bits)
		}
	}
	// Functions already in the frozen base come back as the SAME node
	// (canonicity across the view boundary), which is what makes AnySat
	// answers identical serial vs parallel.
	if v.And(vars[0], vars[1]) == nil {
		t.Fatal("nil node from view")
	}
	h := v.And(vars[0], vars[1])
	h2 := m2And(m, vars[0], vars[1])
	if h != h2 {
		t.Fatal("view rebuilt a function that exists in the frozen base as a different node")
	}
}

// m2And reads the pre-freeze conjunction out of the frozen manager's memo
// via a throwaway view (the manager itself panics on Ite post-freeze).
func m2And(m *Manager, a, b *Node) *Node {
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
// nodes already in the frozen base still reports the memo entries it
// retains: the base holds x_i ∧ x_{i+1} built as Ite(x_i, x_{i+1}, 0); the
// view asks for the swapped conjunctions, which are memo misses that
// create no node.
func TestOverlaySizeCountsMemo(t *testing.T) {
	const n = 64
	m, vars := buildManager(n)
	pairs := make([]*Node, n-1)
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
	if len(v.unique) != 0 {
		t.Fatalf("view created %d overlay nodes; want 0", len(v.unique))
	}
	if len(v.iteMemo) < n-1 {
		t.Fatalf("view memo holds %d entries; want at least %d", len(v.iteMemo), n-1)
	}
	if got, want := v.OverlaySize(), len(v.unique)+len(v.iteMemo); got != want {
		t.Fatalf("OverlaySize = %d; want %d (overlay nodes plus memo entries)", got, want)
	}
}
