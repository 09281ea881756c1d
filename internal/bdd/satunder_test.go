package bdd

import (
	"math/rand"
	"testing"
)

// TestSatUnderMatchesConjunction checks SatUnder against the conjunction
// it replaces on seeded random functions (base and overlay nodes alike)
// and random literal sets: SatUnder(f, lits) must equal
// And(f, CubeLits(lits)) != False, and must leave the view's overlay and
// cache as it found them.
func TestSatUnderMatchesConjunction(t *testing.T) {
	const n = 10
	rng := rand.New(rand.NewSource(34))
	var randFn func(ite func(f, g, h Node) Node, vars []Node, depth int) Node
	randFn = func(ite func(f, g, h Node) Node, vars []Node, depth int) Node {
		if depth == 0 || rng.Intn(4) == 0 {
			switch k := rng.Intn(n + 2); k {
			case n:
				return trueNode
			case n + 1:
				return falseNode
			default:
				return vars[k]
			}
		}
		return ite(randFn(ite, vars, depth-1), randFn(ite, vars, depth-1), randFn(ite, vars, depth-1))
	}
	m, vars := buildManager(n)
	var fns []Node
	for range 40 {
		fns = append(fns, randFn(m.Ite, vars, 5))
	}
	m.Freeze()
	v := m.NewView()
	for range 40 {
		fns = append(fns, randFn(v.Ite, vars, 5))
	}
	sat, unsat := 0, 0
	for i, f := range fns {
		for range 50 {
			var lits []Lit
			for va := range n {
				if rng.Intn(3) == 0 {
					lits = append(lits, Lit{Var: va, Val: rng.Intn(2) == 1})
				}
			}
			size := v.OverlaySize()
			got := v.SatUnder(f, lits)
			if v.OverlaySize() != size {
				t.Fatalf("function %d: SatUnder grew the view from %d to %d entries", i, size, v.OverlaySize())
			}
			if want := v.And(f, v.CubeLits(lits)) != falseNode; got != want {
				t.Fatalf("function %d under %v: SatUnder %t, conjunction satisfiable %t", i, lits, got, want)
			}
			if got {
				sat++
			} else {
				unsat++
			}
		}
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("%d satisfiable and %d unsatisfiable probes; the test needs both", sat, unsat)
	}
}
