// Package bdd implements reduced ordered binary decision diagrams (ROBDDs).
//
// RECORD models execution conditions of register-transfer templates as
// Boolean functions over instruction-word bits and mode-register bits
// (Leupers/Marwedel, DATE 1997, section 2).  This package provides the
// underlying BDD machinery: a manager with a unique table guaranteeing
// canonicity, the classic ternary ITE operator with an operation cache,
// quantifier and restriction operations, and satisfiability queries used
// to prune templates with conflicting encodings.
//
// Nodes are immutable and hash-consed: two structurally equal functions are
// represented by the same Node handle, so semantic equivalence is handle
// equality.  A handle is an int32 index into the manager's node slice
// (Brace, Rudell and Bryant, DAC 1990): 0 is false, 1 is true.  The store
// holds no Go pointer — nodes, the open-addressed unique table and the
// lossy operation cache are flat slices — so the garbage collector never
// traces it.  All operations on nodes from different managers are invalid.
package bdd

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/faultpoint"
	"repro/internal/obs"
)

// InvariantError is the panic value used for caller-contract violations
// (negative variable indices).  These panics are invariant-only: they are
// unreachable from well-formed pipeline input, so they are not converted to
// returned errors; instead every pipeline phase runs under a diag.Capture
// recovery boundary that turns them into Error diagnostics rather than
// driver crashes (see internal/diag and the boundary tests in this
// package's test file).
type InvariantError string

func (e InvariantError) Error() string { return string(e) }

// Node is a handle to a vertex of a shared ROBDD: an index into its
// manager's node slice (or, past the frozen base, into a View's overlay).
// The zero value is the constant false.
type Node int32

const (
	falseNode Node = 0
	trueNode  Node = 1
)

// IsLeaf reports whether n is a terminal (constant) node.
func (n Node) IsLeaf() bool { return n <= trueNode }

// leafVar is the level of the terminals: below every variable, so the top
// variable of an Ite is a plain minimum and cofactoring needs no leaf test.
const leafVar = math.MaxInt32

// node is one vertex: variable v with low (v=0) and high (v=1) cofactors.
type node struct {
	v      int32
	lo, hi Node
}

// Manager owns a universe of BDD nodes over a fixed, growable variable
// order.  The zero value is not usable; call New.
type Manager struct {
	store  table
	memo   opCache
	names  []string // variable names, index = variable
	byName map[string]int
	// frozen makes every table read-only: mutation panics, concurrent
	// reads become safe, and NewView hands out copy-on-write overlays.
	frozen bool

	// Optional observability counters (nil-safe, single atomic add on the
	// hot path): nodes allocated by mk, Ite invocations.  Set before the
	// manager is shared; per-template satisfiability cost then shows up
	// in /metrics instead of requiring a profiler.
	nodesAllocated *obs.Counter
	iteOps         *obs.Counter
}

// New creates an empty manager with no variables declared.
func New() *Manager {
	m := &Manager{byName: make(map[string]int)}
	m.store.nodes = []node{{v: leafVar}, {v: leafVar}}
	m.store.slots = make([]Node, minSlots)
	return m
}

// True returns the constant-true node.
func (m *Manager) True() Node { return trueNode }

// False returns the constant-false node.
func (m *Manager) False() Node { return falseNode }

// Const returns the constant node for b.
func (m *Manager) Const(b bool) Node {
	if b {
		return trueNode
	}
	return falseNode
}

// NumVars returns the number of declared variables.
func (m *Manager) NumVars() int { return len(m.names) }

// VarName returns the declared name of variable v.
func (m *Manager) VarName(v int) string {
	if v >= 0 && v < len(m.names) {
		return m.names[v]
	}
	return fmt.Sprintf("x%d", v)
}

// DeclareVar declares (or retrieves) a named variable and returns its index.
// Variable order is declaration order.
func (m *Manager) DeclareVar(name string) int {
	if v, ok := m.byName[name]; ok {
		return v
	}
	if m.frozen {
		panic(InvariantError("bdd: DeclareVar on frozen manager"))
	}
	v := len(m.names)
	m.names = append(m.names, name)
	m.byName[name] = v
	return v
}

// VarByName returns the index of a declared variable, or -1.
func (m *Manager) VarByName(name string) int {
	if v, ok := m.byName[name]; ok {
		return v
	}
	return -1
}

// Var returns the BDD for the single variable v, declaring anonymous
// variables as needed so that v is in range.
func (m *Manager) Var(v int) Node {
	m.declareUpTo(v)
	return m.mk(int32(v), falseNode, trueNode)
}

// NVar returns the BDD for the negation of variable v.
func (m *Manager) NVar(v int) Node {
	m.declareUpTo(v)
	return m.mk(int32(v), trueNode, falseNode)
}

func (m *Manager) declareUpTo(v int) {
	if v < 0 {
		panic(InvariantError("bdd: negative variable index"))
	}
	for len(m.names) <= v {
		m.DeclareVar(fmt.Sprintf("x%d", len(m.names)))
	}
}

// Top returns the variable of n and its low and high cofactors.  For a
// terminal v is -1 and lo == hi == n.
func (m *Manager) Top(n Node) (v int, lo, hi Node) {
	if n.IsLeaf() {
		return -1, n, n
	}
	x := m.store.nodes[n]
	return int(x.v), x.lo, x.hi
}

// mk returns the canonical node (v, lo, hi), applying the reduction rule.
func (m *Manager) mk(v int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	slot, n := m.store.find(v, lo, hi)
	if n != falseNode {
		return n
	}
	if m.frozen {
		panic(InvariantError("bdd: node creation on frozen manager (use a View)"))
	}
	m.nodesAllocated.Inc()
	return m.store.insert(slot, node{v, lo, hi})
}

// Instrument wires observability counters into the manager's hot paths:
// nodesAllocated counts canonical nodes created by mk, iteOps counts Ite
// calls (the unit of BDD work).  Either may be nil.  Call before sharing
// the manager; the counters themselves are atomic, so instrumented
// managers stay safe under frozen-target parallel compilation.
func (m *Manager) Instrument(nodesAllocated, iteOps *obs.Counter) {
	m.nodesAllocated = nodesAllocated
	m.iteOps = iteOps
}

// Size returns the total number of nodes ever created in the manager
// (including the two terminals).
func (m *Manager) Size() int { return len(m.store.nodes) }

// Ite computes if-then-else: f·g + ¬f·h.  All binary operations are
// expressed through Ite, sharing one operation cache.  The cache is lossy:
// a miss recomputes, and the exact unique table returns the same node.  A
// frozen manager neither writes the cache nor creates nodes, so Ite on it
// succeeds only for functions that already exist (residual operations go
// through a View).
func (m *Manager) Ite(f, g, h Node) Node {
	m.iteOps.Inc()
	// Terminal cases.
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
	if r, ok := m.memo.get(f, g, h); ok {
		return r
	}
	if err := faultpoint.Hit("bdd.ite", ""); err != nil {
		panic(err) // Ite cannot return errors; the phase boundary recovers.
	}
	nf, ng, nh := m.store.nodes[f], m.store.nodes[g], m.store.nodes[h]
	v := min(nf.v, ng.v, nh.v)
	f0, f1 := nf.cofactors(f, v)
	g0, g1 := ng.cofactors(g, v)
	h0, h1 := nh.cofactors(h, v)
	r := m.mk(v, m.Ite(f0, g0, h0), m.Ite(f1, g1, h1))
	if !m.frozen {
		m.memo.fit(len(m.store.nodes))
		m.memo.put(f, g, h, r)
	}
	return r
}

// cofactors returns the cofactors of n (whose vertex is x) with respect
// to variable v, which is at or above x's level.
func (x node) cofactors(n Node, v int32) (lo, hi Node) {
	if x.v != v {
		return n, n
	}
	return x.lo, x.hi
}

// And returns the conjunction of its arguments (true for zero arguments).
func (m *Manager) And(ns ...Node) Node {
	r := trueNode
	for _, n := range ns {
		r = m.Ite(r, n, falseNode)
		if r == falseNode {
			return r
		}
	}
	return r
}

// Or returns the disjunction of its arguments (false for zero arguments).
func (m *Manager) Or(ns ...Node) Node {
	r := falseNode
	for _, n := range ns {
		r = m.Ite(n, trueNode, r)
		if r == trueNode {
			return r
		}
	}
	return r
}

// Not returns the complement of f.
func (m *Manager) Not(f Node) Node { return m.Ite(f, falseNode, trueNode) }

// Xor returns the exclusive-or of f and g.
func (m *Manager) Xor(f, g Node) Node { return m.Ite(f, m.Not(g), g) }

// Xnor returns the complement of Xor(f, g), i.e. Boolean equality.
func (m *Manager) Xnor(f, g Node) Node { return m.Ite(f, g, m.Not(g)) }

// Implies returns ¬f + g.
func (m *Manager) Implies(f, g Node) Node { return m.Ite(f, g, trueNode) }

// Restrict fixes variable v to the given value in f.
func (m *Manager) Restrict(f Node, v int, value bool) Node {
	x := m.store.nodes[f]
	if int(x.v) > v { // terminals sit at leafVar
		return f
	}
	if int(x.v) == v {
		if value {
			return x.hi
		}
		return x.lo
	}
	return m.mk(x.v, m.Restrict(x.lo, v, value), m.Restrict(x.hi, v, value))
}

// Exists existentially quantifies variable v out of f.
func (m *Manager) Exists(f Node, v int) Node {
	return m.Or(m.Restrict(f, v, false), m.Restrict(f, v, true))
}

// Sat reports whether f is satisfiable.
func (m *Manager) Sat(f Node) bool { return f != falseNode }

// Tautology reports whether f is constant true.
func (m *Manager) Tautology(f Node) bool { return f == trueNode }

// AnySat returns one satisfying assignment of f as a map from variable to
// value.  Variables not in the map are don't-cares.  ok is false when f is
// unsatisfiable.
func (m *Manager) AnySat(f Node) (assign map[int]bool, ok bool) {
	return anySat(m.node, f)
}

// AnySatWalk visits one satisfying assignment of f literal by literal
// (variables absent from the path are don't-cares), avoiding the map
// allocation of AnySat.  It reports whether f is satisfiable; fn is never
// called when it is not.
func (m *Manager) AnySatWalk(f Node, fn func(v int, val bool)) bool {
	return anySatWalk(m.node, f, fn)
}

func (m *Manager) node(n Node) node { return m.store.nodes[n] }

// anySat collects anySatWalk's path into a map.
func anySat(at func(Node) node, f Node) (map[int]bool, bool) {
	if f == falseNode {
		return nil, false
	}
	assign := make(map[int]bool)
	anySatWalk(at, f, func(v int, val bool) { assign[v] = val })
	return assign, true
}

// anySatWalk follows the low branch unless it is false: the path every
// AnySat answer has always taken, so encodings do not depend on the store.
func anySatWalk(at func(Node) node, f Node, fn func(v int, val bool)) bool {
	if f == falseNode {
		return false
	}
	for !f.IsLeaf() {
		x := at(f)
		if x.lo != falseNode {
			fn(int(x.v), false)
			f = x.lo
		} else {
			fn(int(x.v), true)
			f = x.hi
		}
	}
	return true
}

// Eval evaluates f under a total assignment (missing variables read false).
func (m *Manager) Eval(f Node, assign map[int]bool) bool {
	for !f.IsLeaf() {
		x := m.store.nodes[f]
		if assign[int(x.v)] {
			f = x.hi
		} else {
			f = x.lo
		}
	}
	return f == trueNode
}

// SatCount returns the number of satisfying assignments of f over the first
// nvars variables (nvars must be at least the index of every variable in f,
// plus one).  The result is a float64 because counts grow as 2^nvars.
func (m *Manager) SatCount(f Node, nvars int) float64 {
	// level maps terminals to nvars so skipped levels below the last
	// variable count like any other gap.
	level := func(n Node) int {
		if n.IsLeaf() {
			return nvars
		}
		return int(m.store.nodes[n].v)
	}
	memo := make([]float64, len(m.store.nodes)) // by handle; 0 = not yet counted
	memo[trueNode] = 1
	var count func(n Node) float64 // over variables level(n)..nvars-1
	count = func(n Node) float64 {
		if n == falseNode || memo[n] != 0 {
			return memo[n]
		}
		x := m.store.nodes[n]
		c := count(x.lo)*pow2(level(x.lo)-int(x.v)-1) +
			count(x.hi)*pow2(level(x.hi)-int(x.v)-1)
		memo[n] = c
		return c
	}
	return count(f) * pow2(level(f))
}

func pow2(k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r *= 2
	}
	return r
}

// reachable calls visit once for every internal node reachable from f.
func (m *Manager) reachable(f Node, visit func(x node)) {
	seen := make([]bool, len(m.store.nodes))
	var walk func(n Node)
	walk = func(n Node) {
		if n.IsLeaf() || seen[n] {
			return
		}
		seen[n] = true
		x := m.store.nodes[n]
		visit(x)
		walk(x.lo)
		walk(x.hi)
	}
	walk(f)
}

// Support returns the sorted set of variables f depends on.
func (m *Manager) Support(f Node) []int {
	seen := make([]bool, len(m.names))
	vars := []int{}
	m.reachable(f, func(x node) {
		if !seen[x.v] {
			seen[x.v] = true
			vars = append(vars, int(x.v))
		}
	})
	sort.Ints(vars)
	return vars
}

// NodeCount returns the number of distinct internal nodes reachable from f.
func (m *Manager) NodeCount(f Node) int {
	n := 0
	m.reachable(f, func(node) { n++ })
	return n
}

// Cube builds the conjunction of literals given as variable→value.
func (m *Manager) Cube(assign map[int]bool) Node {
	return m.CubeLits(sortedLits(assign))
}

// sortedLits turns a variable→value map into CubeLits' sorted form.
func sortedLits(assign map[int]bool) []Lit {
	lits := make([]Lit, 0, len(assign))
	for v, val := range assign {
		lits = append(lits, Lit{Var: v, Val: val})
	}
	sort.Slice(lits, func(i, j int) bool { return lits[i].Var < lits[j].Var })
	return lits
}

// Lit is one literal of a cube: variable Var with value Val.  Slices of
// literals replace map[int]bool on hot paths so one scratch slice can be
// reused across many cube constructions.
type Lit struct {
	Var int
	Val bool
}

// CubeLits builds the conjunction of the given literals.  lits must be
// sorted by Var ascending with no duplicate variables; unlike Cube this
// allocates nothing beyond the canonical nodes themselves.
func (m *Manager) CubeLits(lits []Lit) Node {
	return cubeLits(m.mk, lits)
}

// cubeLits builds a cube bottom-up, for linear-size construction.
func cubeLits(mk func(v int32, lo, hi Node) Node, lits []Lit) Node {
	r := trueNode
	for i := len(lits) - 1; i >= 0; i-- {
		l := lits[i]
		if l.Val {
			r = mk(int32(l.Var), falseNode, r)
		} else {
			r = mk(int32(l.Var), r, falseNode)
		}
	}
	return r
}

// String renders f as a sum of cubes over variable names (for diagnostics;
// exponential in the worst case, so callers should keep f small).
func (m *Manager) String(f Node) string {
	switch f {
	case trueNode:
		return "1"
	case falseNode:
		return "0"
	}
	var cubes []string
	lits := make([]string, 0, 8)
	var walk func(n Node)
	walk = func(n Node) {
		if n == falseNode {
			return
		}
		if n == trueNode {
			if len(lits) == 0 {
				cubes = append(cubes, "1")
			} else {
				cubes = append(cubes, strings.Join(lits, "&"))
			}
			return
		}
		x := m.store.nodes[n]
		name := m.VarName(int(x.v))
		lits = append(lits, "!"+name)
		walk(x.lo)
		lits[len(lits)-1] = name
		walk(x.hi)
		lits = lits[:len(lits)-1]
	}
	walk(f)
	return strings.Join(cubes, " | ")
}

// ----- the store: unique table and operation cache ---------------------

// minSlots is the initial size of an empty unique table.
const minSlots = 64

// table is a node slice with an open-addressed, linear-probed unique table
// over it.  Handles of its nodes start at off (0 for a manager, the frozen
// base's size for a View's overlay); a slot holds a handle, and 0 marks it
// empty (the false terminal is never stored).
type table struct {
	nodes []node
	slots []Node // length a power of two, at most ¾ full
	off   Node
}

// hash3 mixes three 32-bit keys for the unique table and the cache.
func hash3(a, b, c uint32) uint32 {
	h := a*0x9E3779B1 + b*0x85EBCA77 + c*0xC2B2AE3D
	return h ^ h>>15
}

// find returns the handle of node (v, lo, hi), or 0 and the empty slot
// where it belongs.
func (t *table) find(v int32, lo, hi Node) (slot int, n Node) {
	mask := len(t.slots) - 1
	for i := int(hash3(uint32(v), uint32(lo), uint32(hi))) & mask; ; i = (i + 1) & mask {
		n := t.slots[i]
		if n == falseNode {
			return i, falseNode
		}
		if x := t.nodes[n-t.off]; x.v == v && x.lo == lo && x.hi == hi {
			return i, n
		}
	}
}

// insert appends x at the empty slot find returned and doubles the slots
// at ¾ load.
func (t *table) insert(slot int, x node) Node {
	if len(t.nodes)+int(t.off) >= math.MaxInt32 {
		panic(InvariantError("bdd: node handles exhausted"))
	}
	n := t.off + Node(len(t.nodes))
	t.nodes = append(t.nodes, x)
	t.slots[slot] = n
	if 4*len(t.nodes) >= 3*len(t.slots) {
		t.slots = make([]Node, 2*len(t.slots))
		mask := len(t.slots) - 1
		for j, x := range t.nodes {
			if x.v == leafVar {
				continue // the manager's terminals are never looked up
			}
			i := int(hash3(uint32(x.v), uint32(x.lo), uint32(x.hi))) & mask
			for t.slots[i] != falseNode {
				i = (i + 1) & mask
			}
			t.slots[i] = t.off + Node(j)
		}
	}
	return n
}

// cacheEntry memoizes Ite(f, g, h) = r.  f is never a terminal for a
// cached call, so f == 0 marks an empty entry.
type cacheEntry struct{ f, g, h, r Node }

// opCache is a lossy, direct-mapped Ite cache: a colliding put overwrites.
type opCache struct {
	entries []cacheEntry // length a power of two
	filled  int          // entries with f != 0
	pinned  bool         // fit is a no-op (tests pin the size to force evictions)
}

func (c *opCache) index(f, g, h Node) int {
	return int(hash3(uint32(f), uint32(g), uint32(h))) & (len(c.entries) - 1)
}

func (c *opCache) get(f, g, h Node) (Node, bool) {
	if len(c.entries) == 0 {
		return falseNode, false
	}
	e := c.entries[c.index(f, g, h)]
	return e.r, e.f == f && e.g == g && e.h == h
}

func (c *opCache) put(f, g, h, r Node) {
	e := &c.entries[c.index(f, g, h)]
	if e.f == falseNode {
		c.filled++
	}
	*e = cacheEntry{f, g, h, r}
}

// fit grows the cache to the next power of two ≥ n, keeping its entries.
func (c *opCache) fit(n int) {
	if n <= len(c.entries) || c.pinned {
		return
	}
	size := max(len(c.entries), 1)
	for size < n {
		size *= 2
	}
	old := c.entries
	c.entries, c.filled = make([]cacheEntry, size), 0
	for _, e := range old {
		if e.f != falseNode {
			c.put(e.f, e.g, e.h, e.r)
		}
	}
}
