package burs_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	rbind "repro/internal/bind"
	"repro/internal/burs"
	"repro/internal/cfront"
	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/grammar"
	"repro/internal/models"
	"repro/internal/rtl"
)

// tree is the oracle's own subject tree: a head over kid pointers,
// converted to a handle only to be labelled by the parser.
type tree struct {
	rtl.Expr
	kids []*tree
}

// treeOf reads the tree of handle h back out of s.
func treeOf(s *rtl.Store, h rtl.ExprID) *tree {
	e := &tree{Expr: *s.Expr(h)}
	for _, k := range s.Kids(h) {
		e.kids = append(e.kids, treeOf(s, k))
	}
	return e
}

// build builds e into s and returns its handle.
func (e *tree) build(s *rtl.Store) rtl.ExprID {
	kids := make([]rtl.ExprID, len(e.kids))
	for i, k := range e.kids {
		kids[i] = k.build(s)
	}
	return s.Node(e.Expr, kids...)
}

func (e *tree) String() string {
	var s rtl.Store
	return s.String(e.build(&s))
}

func constTree(v int64, w int) *tree { return &tree{Expr: rtl.Expr{Kind: rtl.Const, Val: v, Width: w}} }

// refOracle is an independent top-down implementation of the minimum
// derivation cost of a subject tree from every nonterminal, the oracle
// for the parser's labels.  It tries every non-start rule of the grammar
// at every node, without the parser's terminal buckets, and closes over
// chain rules by relaxation.  Subtrees are memoised by node, so a leaf
// shared across a tree is costed once.
type refOracle struct {
	g    *grammar.Grammar
	memo map[*tree][]int32
}

func newRefOracle(g *grammar.Grammar) *refOracle {
	return &refOracle{g: g, memo: make(map[*tree][]int32)}
}

// costs returns, per nonterminal, the minimum cost of deriving e from it
// (burs.Inf if impossible).
func (o *refOracle) costs(e *tree) []int32 {
	if c, ok := o.memo[e]; ok {
		return c
	}
	g := o.g
	cost := make([]int32, g.NumNT())
	for i := range cost {
		cost[i] = burs.Inf
	}
	// Rules whose pattern is more than a bare nonterminal: their
	// nonterminal leaves sit at proper subtrees of e.
	for i := range g.Rules {
		r := &g.Rules[i]
		if r.Kind == grammar.KindStart || r.IsChain() {
			continue
		}
		var binds []refField
		c := o.match(r, e, &binds)
		if c < burs.Inf && r.Cost+c < cost[r.LHS] {
			cost[r.LHS] = r.Cost + c
		}
	}
	// Chain rules at e itself: relax until nothing improves.  Rule costs
	// are positive, so |NT| rounds reach the fixpoint.
	for changed := true; changed; {
		changed = false
		for i := range g.Rules {
			r := &g.Rules[i]
			if r.Kind == grammar.KindStart || !r.IsChain() {
				continue
			}
			src := o.chainSource(r)
			if cost[src] < burs.Inf && r.Cost+cost[src] < cost[r.LHS] {
				cost[r.LHS] = r.Cost + cost[src]
				changed = true
			}
		}
	}
	o.memo[e] = cost
	return cost
}

// refField is one instruction field bound by a match.
type refField struct {
	hi, lo int
	val    int64
}

// bind records that field hi..lo holds v and reports whether that agrees
// with what the match bound before: a nonlinear pattern needs one value.
func bind(binds *[]refField, hi, lo int, v int64) bool {
	for _, f := range *binds {
		if f.hi == hi && f.lo == lo {
			return f.val == v
		}
	}
	*binds = append(*binds, refField{hi, lo, v})
	return true
}

// fits reports whether v is encodable in a w-bit field, unsigned or
// two's-complement signed.
func fits(v int64, w int) bool {
	if w >= 64 {
		return true
	}
	return v >= -(int64(1)<<uint(w-1)) && v < int64(1)<<uint(w)
}

// chainSource returns the nonterminal a chain rule derives from.
func (o *refOracle) chainSource(r *grammar.Rule) int { return o.g.PatNT(r.Pat) }

// match returns the cost of the nonterminal leaves of r's pattern matched
// at e, or burs.Inf.  A stop rule's pattern is the register it stops at.
func (o *refOracle) match(r *grammar.Rule, e *tree, binds *[]refField) int32 {
	if r.Kind == grammar.KindStop {
		if e.Kind != rtl.Read || len(e.kids) != 0 || e.Storage != o.g.NTNames[r.LHS] {
			return burs.Inf
		}
		return 0
	}
	return o.matchPat(r.Pat, e, binds)
}

// matchPat matches the pattern of handle h at e, comparing the pattern's
// own tree node by node; it reads nothing of the grammar but which
// handles stand for nonterminals.
func (o *refOracle) matchPat(h rtl.ExprID, e *tree, binds *[]refField) int32 {
	if nt := o.g.PatNT(h); nt != 0 {
		return o.costs(e)[nt]
	}
	p, kids := o.g.Exprs().Expr(h), o.g.Exprs().Kids(h)
	switch p.Kind {
	case rtl.OpApp:
		if e.Kind != rtl.OpApp || e.Op != p.Op || e.Width != p.Width {
			return burs.Inf
		}
	case rtl.Read:
		if e.Kind != rtl.Read || len(e.kids) != 1 || e.Storage != p.Storage {
			return burs.Inf
		}
	case rtl.InsnField:
		if e.Kind != rtl.Const || !fits(e.Val, p.Hi-p.Lo+1) || !bind(binds, p.Hi, p.Lo, e.Val) {
			return burs.Inf
		}
	case rtl.Const:
		if e.Kind != rtl.Const || e.Val != p.Val {
			return burs.Inf
		}
	case rtl.PortRef:
		if e.Kind != rtl.PortRef || e.Port != p.Port {
			return burs.Inf
		}
	case rtl.Slice:
		if e.Kind != rtl.Slice || e.Hi != p.Hi || e.Lo != p.Lo {
			return burs.Inf
		}
	default:
		return burs.Inf
	}
	if len(kids) != len(e.kids) {
		return burs.Inf
	}
	var sum int32
	for i, k := range kids {
		c := o.matchPat(k, e.kids[i], binds)
		if c >= burs.Inf {
			return burs.Inf
		}
		sum += c
	}
	return sum
}

// alphabet is what a machine's subject trees are made of: its operators
// at the widths its templates use them, its storages, its input ports,
// its hardwired constants, immediate values around its field widths, and
// the templates' sources themselves.
type alphabet struct {
	ops    []*tree // one node per distinct (operator, width, arity)
	slices []*tree // one node per distinct (hi, lo)
	regs   []*tree // address-less reads
	mems   []grammar.StorageInfo
	ports  []*tree
	consts []int64
	srcs   []*tree
}

func alphabetOf(g *grammar.Grammar, base *rtl.Base) *alphabet {
	a := &alphabet{}
	seen := make(map[string]bool)
	once := func(key string) bool {
		if seen[key] {
			return false
		}
		seen[key] = true
		return true
	}
	vals := map[int64]bool{0: true, 1: true, -1: true}
	var visit func(n *tree)
	visit = func(n *tree) { // in pre-order
		switch n.Kind {
		case rtl.OpApp:
			if once(fmt.Sprint("op/", n.Op, "/", n.Width, "/", len(n.kids))) {
				a.ops = append(a.ops, n)
			}
		case rtl.Slice:
			if once(fmt.Sprint("slice/", n.Hi, "/", n.Lo)) {
				a.slices = append(a.slices, n)
			}
		case rtl.PortRef:
			if once("port/" + n.Port) {
				a.ports = append(a.ports, n)
			}
		case rtl.Const:
			vals[n.Val] = true
		case rtl.InsnField:
			w := n.Hi - n.Lo + 1
			if w < 62 {
				for _, v := range []int64{1<<uint(w) - 1, 1 << uint(w), -(1 << uint(w-1)), -(1 << uint(w-1)) - 1} {
					vals[v] = true
				}
			}
		}
		for _, k := range n.kids {
			visit(k)
		}
	}
	for _, t := range base.Templates {
		if len(t.Cond.Dynamic) > 0 {
			continue
		}
		src := treeOf(base.Exprs(), t.Src)
		visit(src)
		if t.DestAddr != rtl.NoExpr {
			visit(treeOf(base.Exprs(), t.DestAddr))
		}
		a.srcs = append(a.srcs, src)
	}
	for _, s := range g.Spec.Storages {
		if s.Size == 1 {
			a.regs = append(a.regs, &tree{Expr: rtl.Expr{Kind: rtl.Read, Storage: s.Name, Width: s.Width}})
		} else {
			a.mems = append(a.mems, s)
		}
	}
	for v := range vals {
		a.consts = append(a.consts, v)
	}
	sort.Slice(a.consts, func(i, j int) bool { return a.consts[i] < a.consts[j] })
	return a
}

// gen returns a random subject tree of at most depth levels of operators.
func (a *alphabet) gen(rng *rand.Rand, depth int) *tree {
	if depth == 0 || rng.Intn(4) == 0 {
		return a.leaf(rng, depth)
	}
	switch k := rng.Intn(8); {
	case k < 2 && len(a.srcs) > 0:
		// A template's own source, its immediates instantiated and its
		// register operands replaced by subtrees.
		return a.instantiate(rng, a.srcs[rng.Intn(len(a.srcs))], depth)
	case k < 3 && len(a.slices) > 0:
		s := a.slices[rng.Intn(len(a.slices))]
		return &tree{s.Expr, []*tree{a.gen(rng, depth-1)}}
	case len(a.ops) > 0:
		op := a.ops[rng.Intn(len(a.ops))]
		kids := make([]*tree, len(op.kids))
		for i := range kids {
			kids[i] = a.gen(rng, depth-1)
		}
		return &tree{op.Expr, kids}
	}
	return a.leaf(rng, depth)
}

func (a *alphabet) leaf(rng *rand.Rand, depth int) *tree {
	for {
		switch rng.Intn(4) {
		case 0:
			if len(a.regs) > 0 {
				return a.regs[rng.Intn(len(a.regs))]
			}
		case 1:
			if len(a.mems) > 0 {
				m := a.mems[rng.Intn(len(a.mems))]
				addr := constTree(int64(rng.Intn(m.Size)), 16)
				if depth > 0 && rng.Intn(3) == 0 {
					addr = a.gen(rng, depth-1)
				}
				return &tree{rtl.Expr{Kind: rtl.Read, Storage: m.Name, Width: m.Width}, []*tree{addr}}
			}
		case 2:
			if len(a.ports) > 0 {
				return a.ports[rng.Intn(len(a.ports))]
			}
		default:
			return constTree(a.consts[rng.Intn(len(a.consts))], 16)
		}
	}
}

func (a *alphabet) instantiate(rng *rand.Rand, e *tree, depth int) *tree {
	switch e.Kind {
	case rtl.InsnField:
		return constTree(a.consts[rng.Intn(len(a.consts))], e.Width)
	case rtl.Read:
		if len(e.kids) == 0 {
			if depth > 0 && rng.Intn(2) == 0 {
				return a.gen(rng, depth-1)
			}
			return e
		}
	}
	if len(e.kids) == 0 {
		return e
	}
	c := &tree{Expr: e.Expr, kids: make([]*tree, len(e.kids))}
	for i, k := range e.kids {
		c.kids[i] = a.instantiate(rng, k, depth)
	}
	return c
}

// TestPropOptimalityVsReference is the selection oracle: on the test
// machine and on every bundled model, the parser's label cost from every
// nonterminal, at the root of random subject trees over the machine's own
// alphabet, equals the independent oracle's.  Any mismatch is a bug.
func TestPropOptimalityVsReference(t *testing.T) {
	type machine struct {
		name string
		g    *grammar.Grammar
		base *rtl.Base
	}
	g, base := burs.TinyMachine(t)
	machines := []machine{{"test", g, base}}
	names := []string{"brancher"}
	for _, e := range models.All() {
		names = append(names, e.Name)
	}
	for _, name := range names {
		mdl, _ := models.Get(name)
		tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		machines = append(machines, machine{name, tg.Grammar, tg.Base})
	}
	trials := 1000
	if testing.Short() {
		trials = 200
	}
	for _, m := range machines {
		t.Run(m.name, func(t *testing.T) {
			// One store and one set of labels serve every trial, so a
			// subtree that recurs across trials is labelled once.
			var s rtl.Store
			l := burs.NewParser(m.g).NewLabels(&s)
			a := alphabetOf(m.g, m.base)
			rng := rand.New(rand.NewSource(21))
			finite := 0
			for trial := 0; trial < trials; trial++ {
				e := a.gen(rng, 3)
				h := e.build(&s)
				l.Label(h)
				want := newRefOracle(m.g).costs(e)
				for nt := 1; nt < m.g.NumNT(); nt++ {
					if got := int32(l.Cost(h, nt)); got != want[nt] {
						t.Fatalf("trial %d: cost mismatch for %s at %s: parser=%d ref=%d",
							trial, e, m.g.NTNames[nt], got, want[nt])
					}
					if want[nt] < burs.Inf {
						finite++
					}
				}
			}
			if finite == 0 {
				t.Error("no random tree is derivable from any nonterminal")
			}
			t.Logf("%d trees, %d finite labels", trials, finite)
		})
	}
}

// TestLabelOncePerHandle checks labelling by handle on real blocks: the
// lowered trees of DSPStone kernels on tms320c25 repeat subtrees, each
// distinct handle is labelled exactly once however often it occurs and
// however often its trees are labelled, and every occurrence reads the
// same cost and rule row as labelling that subtree alone in a store of
// its own.
func TestLabelOncePerHandle(t *testing.T) {
	mdl, _ := models.Get("tms320c25")
	tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, p := tg.Grammar, tg.Parser
	for _, k := range []dspstone.Kernel{dspstone.BiquadN(8), dspstone.NComplexUpdates(8)} {
		prog, err := cfront.Parse(k.Source)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rbind.Bind(prog, tg.Net)
		if err != nil {
			t.Fatal(err)
		}
		ets, err := b.LowerProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		s := b.Exprs()
		var roots []rtl.ExprID
		for _, et := range ets {
			roots = append(roots, et.Src, et.DestAddr)
		}
		l := p.NewLabels(s)
		for range 2 {
			for _, h := range roots {
				l.Label(h)
			}
		}
		distinct, occurrences := map[rtl.ExprID]bool{}, 0
		var visit func(h rtl.ExprID)
		visit = func(h rtl.ExprID) {
			occurrences++
			distinct[h] = true
			var own rtl.Store
			ah := treeOf(s, h).build(&own)
			alone := p.NewLabels(&own)
			alone.Label(ah)
			for nt := 0; nt < g.NumNT(); nt++ {
				if l.Cost(h, nt) != alone.Cost(ah, nt) || l.Rule(h, nt) != alone.Rule(ah, nt) {
					t.Fatalf("%s: at %s from %s: cost %d by rule %d, alone cost %d by rule %d", k.Name, s.String(h),
						g.NTNames[nt], l.Cost(h, nt), l.Rule(h, nt), alone.Cost(ah, nt), alone.Rule(ah, nt))
				}
			}
			for _, kid := range s.Kids(h) {
				visit(kid)
			}
		}
		for _, h := range roots {
			visit(h)
		}
		if l.Labelled() != len(distinct) {
			t.Errorf("%s: %d handles labelled for %d distinct subtrees", k.Name, l.Labelled(), len(distinct))
		}
		if occurrences <= len(distinct) {
			t.Errorf("%s: %d occurrences of %d distinct subtrees: no subtree repeats", k.Name, occurrences, len(distinct))
		}
		t.Logf("%s: %d subtree occurrences, %d labelled", k.Name, occurrences, l.Labelled())
	}
}
