// Frozen managers and copy-on-write views.
//
// A Manager memoizes destructively: every Ite call may insert into the
// unique table and the operation cache, so two goroutines sharing one
// manager race even when they compute logically independent functions.
// RECORD's serving shape makes that expensive — one retarget produces a
// condition universe that thousands of compiles then only *query* — so the
// manager can be frozen once retargeting is done: Freeze marks every table
// read-only (mutation panics with InvariantError), and NewView hands out
// cheap copy-on-write overlays for the residual node construction a
// compile still needs (conjoining word conditions, operand-field cubes).
//
// A View resolves nodes against the frozen base tables first and keeps its
// private nodes in an overlay store of the same shape as the manager's: a
// node slice whose handles start at the base's size, an open-addressed
// unique table and a lossy operation cache.  Concurrent views never write
// shared state; reads of the frozen slices are safe because Freeze
// guarantees no further writes.  Canonicity is preserved per view:
// structurally equal functions built through one view get the same handle,
// and any function already present in the frozen base resolves to the
// base handle, so results are bit-for-bit the ones a serial, unfrozen run
// would produce (ROBDDs are canonical for a fixed variable order).  A View
// is NOT safe for concurrent use itself — it is meant to live for one
// compilation.
package bdd

// Freeze marks the manager read-only.  Subsequent calls that would create
// nodes, declare variables or write the operation cache panic with an
// InvariantError; read-only queries (Sat, AnySat, Eval, SatCount, Support,
// NodeCount, String) remain valid, and become safe for concurrent use
// because nothing writes anymore.  Freeze is idempotent.
func (m *Manager) Freeze() { m.frozen = true }

// Frozen reports whether Freeze was called.
func (m *Manager) Frozen() bool { return m.frozen }

// minViewCache is the operation-cache size of a view with few overlay
// nodes: a view's Ites mostly resolve to base nodes, so its cache cannot
// start at its (empty) node count the way a manager's does.
const minViewCache = 1 << 10

// View is a copy-on-write overlay over a frozen Manager: node construction
// reads the frozen unique table and operation cache, and keeps its own
// inserts privately.  Views of the same manager may be used concurrently
// with each other (one goroutine per view).
type View struct {
	base    *Manager
	overlay table // handles start at len(base nodes)
	memo    opCache
	// failed is SatUnder's scratch: the nodes that failed under the
	// current call's literals.
	failed map[Node]struct{}
}

// NewView returns a fresh copy-on-write overlay.  The manager must be
// frozen first: a live manager could still grow its tables under the view.
func (m *Manager) NewView() *View {
	if !m.frozen {
		panic(InvariantError("bdd: NewView on unfrozen manager (call Freeze first)"))
	}
	return &View{base: m, overlay: table{off: Node(len(m.store.nodes))}}
}

// True returns the constant-true node of the underlying manager.
func (v *View) True() Node { return trueNode }

// False returns the constant-false node of the underlying manager.
func (v *View) False() Node { return falseNode }

// node resolves a base or overlay handle.
func (v *View) node(n Node) node {
	if n < v.overlay.off {
		return v.base.store.nodes[n]
	}
	return v.overlay.nodes[n-v.overlay.off]
}

// mk is Manager.mk against base-then-overlay tables.  A node with an
// overlay child cannot be in the base, so only all-base triples probe it.
func (v *View) mk(va int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	if lo < v.overlay.off && hi < v.overlay.off {
		if _, n := v.base.store.find(va, lo, hi); n != falseNode {
			return n
		}
	}
	if v.overlay.slots == nil {
		v.overlay.slots = make([]Node, minSlots)
	}
	slot, n := v.overlay.find(va, lo, hi)
	if n != falseNode {
		return n
	}
	return v.overlay.insert(slot, node{va, lo, hi})
}

// Ite computes if-then-else through the overlay, consulting the frozen
// operation cache read-only and caching privately.
func (v *View) Ite(f, g, h Node) Node {
	switch {
	case f == trueNode:
		return g
	case f == falseNode:
		return h
	case g == h:
		return g
	case g == trueNode && h == falseNode:
		return f
	}
	off := v.overlay.off
	if f < off && g < off && h < off {
		if r, ok := v.base.memo.get(f, g, h); ok {
			return r
		}
	}
	if r, ok := v.memo.get(f, g, h); ok {
		return r
	}
	nf, ng, nh := v.node(f), v.node(g), v.node(h)
	vv := min(nf.v, ng.v, nh.v)
	f0, f1 := nf.cofactors(f, vv)
	g0, g1 := ng.cofactors(g, vv)
	h0, h1 := nh.cofactors(h, vv)
	r := v.mk(vv, v.Ite(f0, g0, h0), v.Ite(f1, g1, h1))
	v.memo.fit(max(minViewCache, len(v.overlay.nodes)))
	v.memo.put(f, g, h, r)
	return r
}

// And returns the conjunction of its arguments (true for zero arguments).
func (v *View) And(ns ...Node) Node {
	r := trueNode
	for _, n := range ns {
		r = v.Ite(r, n, falseNode)
		if r == falseNode {
			return r
		}
	}
	return r
}

// Or returns the disjunction of its arguments (false for zero arguments).
func (v *View) Or(ns ...Node) Node {
	r := falseNode
	for _, n := range ns {
		r = v.Ite(n, trueNode, r)
		if r == trueNode {
			return r
		}
	}
	return r
}

// Not returns the complement of f.
func (v *View) Not(f Node) Node { return v.Ite(f, falseNode, trueNode) }

// Cube builds the conjunction of literals given as variable→value, exactly
// as Manager.Cube but through the overlay.
func (v *View) Cube(assign map[int]bool) Node {
	return v.CubeLits(sortedLits(assign))
}

// CubeLits builds the conjunction of the given literals through the
// overlay; lits must be sorted by Var ascending with no duplicates (see
// Manager.CubeLits).
func (v *View) CubeLits(lits []Lit) Node {
	return cubeLits(v.mk, lits)
}

// AnySat returns one satisfying assignment of f (which may contain overlay
// nodes); semantics match Manager.AnySat.
func (v *View) AnySat(f Node) (map[int]bool, bool) { return anySat(v.node, f) }

// AnySatWalk visits one satisfying assignment of f without allocating;
// semantics match Manager.AnySatWalk.
func (v *View) AnySatWalk(f Node, fn func(va int, val bool)) bool {
	return anySatWalk(v.node, f, fn)
}

// SatUnder reports whether f ∧ CubeLits(lits) is satisfiable — the
// verdict of And(f, CubeLits(lits)) != False — without building a node or
// filling a cache entry.  lits must be sorted by Var ascending with no
// duplicates.  Below a node the literals left to honour are fixed by the
// node's variable, so a node that fails once fails on every path to it:
// the walk remembers it and visits each node of f at most once.
func (v *View) SatUnder(f Node, lits []Lit) bool {
	clear(v.failed)
	return v.satUnder(f, lits)
}

func (v *View) satUnder(f Node, lits []Lit) bool {
	if f.IsLeaf() {
		return f == trueNode
	}
	if _, ok := v.failed[f]; ok {
		return false
	}
	x := v.node(f)
	for len(lits) > 0 && lits[0].Var < int(x.v) {
		lits = lits[1:] // pinned above f: f does not depend on it
	}
	var ok bool
	switch {
	case len(lits) > 0 && lits[0].Var == int(x.v) && lits[0].Val:
		ok = v.satUnder(x.hi, lits[1:])
	case len(lits) > 0 && lits[0].Var == int(x.v):
		ok = v.satUnder(x.lo, lits[1:])
	default:
		ok = v.satUnder(x.lo, lits) || v.satUnder(x.hi, lits)
	}
	if !ok {
		if v.failed == nil {
			v.failed = make(map[Node]struct{})
		}
		v.failed[f] = struct{}{}
	}
	return ok
}

// OverlaySize returns the number of private entries this view retains
// beyond the frozen base: the nodes it created plus its filled operation
// cache entries, which also fill when an Ite resolves to a base node.  The
// cache is sized from the overlay node count (at least minViewCache), so
// the memory a view holds grows with this count.  Session pools use it to
// decide when a recycled view has grown too large to be worth keeping.
func (v *View) OverlaySize() int { return len(v.overlay.nodes) + v.memo.filled }

// Sat reports whether f is satisfiable.
func (v *View) Sat(f Node) bool { return f != falseNode }
