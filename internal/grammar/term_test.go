package grammar_test

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/bdd"
	"repro/internal/bind"
	"repro/internal/cfront"
	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/grammar"
	"repro/internal/models"
	"repro/internal/rtl"
)

func bundledTargets(t *testing.T) map[string]*core.Target {
	t.Helper()
	names := []string{"brancher"}
	for _, e := range models.All() {
		names = append(names, e.Name)
	}
	out := map[string]*core.Target{}
	for _, name := range names {
		mdl, _ := models.Get(name)
		tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tg
	}
	return out
}

// tree is the tests' own expression tree: a head over kid pointers, read
// out of a store.
type tree struct {
	rtl.Expr
	kids []*tree
}

func treeOf(s *rtl.Store, h rtl.ExprID) *tree {
	e := &tree{Expr: *s.Expr(h)}
	for _, k := range s.Kids(h) {
		e.kids = append(e.kids, treeOf(s, k))
	}
	return e
}

func (e *tree) equal(o *tree) bool {
	if e.Expr != o.Expr || len(e.kids) != len(o.kids) {
		return false
	}
	for i, k := range e.kids {
		if !k.equal(o.kids[i]) {
			return false
		}
	}
	return true
}

func (e *tree) swapSite() bool {
	return e.Kind == rtl.OpApp && len(e.kids) == 2 && e.Op.Commutative()
}

func (e *tree) swapSites() int {
	n := 0
	if e.swapSite() {
		n++
	}
	for _, k := range e.kids {
		n += k.swapSites()
	}
	return n
}

// leafMatches is the leaf-level match of the pattern node of handle h
// against subject node n of store s, by comparing the two nodes' own
// fields: the reference for matching by terminal ID.
func leafMatches(g *grammar.Grammar, h rtl.ExprID, s *rtl.Store, n rtl.ExprID) bool {
	p, e, kids := g.Exprs().Expr(h), s.Expr(n), len(s.Kids(n))
	switch p.Kind {
	case rtl.OpApp:
		return e.Kind == rtl.OpApp && e.Op == p.Op && e.Width == p.Width && kids == len(g.Exprs().Kids(h))
	case rtl.Read:
		return e.Kind == rtl.Read && kids == 1 && e.Storage == p.Storage
	case rtl.InsnField:
		return e.Kind == rtl.Const && grammar.FitsField(e.Val, p.Hi-p.Lo+1)
	case rtl.Const:
		return e.Kind == rtl.Const && e.Val == p.Val
	case rtl.PortRef:
		return e.Kind == rtl.PortRef && e.Port == p.Port
	case rtl.Slice:
		return e.Kind == rtl.Slice && e.Hi == p.Hi && e.Lo == p.Lo
	}
	return false
}

// TestTermAgreesWithMatchesLeaf labels nothing: it checks that a pattern
// node matches a subject node at its level exactly when their terminal
// IDs agree (up to the value check a constant needs), so bucketing and
// matching by terminal ID never hide a matching rule from the parser.
// It covers every node of every rule's source and address patterns in
// every bundled grammar against the subject trees (sources and
// destination addresses) of every DSPStone kernel that binds there.
func TestTermAgreesWithMatchesLeaf(t *testing.T) {
	for name, tg := range bundledTargets(t) {
		g := tg.Grammar
		var pats []rtl.ExprID
		seen := make(map[rtl.ExprID]bool)
		var collect func(h rtl.ExprID)
		collect = func(h rtl.ExprID) {
			if seen[h] {
				return
			}
			seen[h] = true
			if g.PatNT(h) == 0 {
				pats = append(pats, h)
			}
			for _, k := range g.Exprs().Kids(h) {
				collect(k)
			}
		}
		for i := range g.Rules {
			r := &g.Rules[i]
			for _, h := range []rtl.ExprID{r.Pat, r.Addr} {
				if h != rtl.NoExpr {
					collect(h)
				}
			}
		}
		checked := 0
		for _, k := range dspstone.Suite() {
			prog, err := cfront.Parse(k.Source)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			b, err := bind.Bind(prog, tg.Net)
			if err != nil {
				continue // the kernel does not fit this machine
			}
			ets, err := b.LowerProgram(prog)
			if err != nil {
				continue
			}
			s := b.Exprs()
			var walk func(n rtl.ExprID)
			walk = func(n rtl.ExprID) {
				term := g.SubjectTerm(s, n)
				for _, h := range pats {
					match, same := leafMatches(g, h, s, n), g.PatTerm(h) == term
					if match {
						checked++
					}
					// Terminal IDs agree on everything but a constant's
					// value or fit.
					if c := g.Exprs().Expr(h).Kind; c == rtl.Const || c == rtl.InsnField {
						same = same && match
					}
					if match != same {
						t.Fatalf("%s: pattern node %s at %s: leaf match %v, terminals %d and %d",
							name, g.Exprs().String(h), s.String(n), match, g.PatTerm(h), term)
					}
				}
				for _, k := range s.Kids(n) {
					walk(k)
				}
			}
			for _, et := range ets {
				walk(et.Src)
				if et.DestAddr != rtl.NoExpr {
					walk(et.DestAddr)
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no pattern node matched any kernel node", name)
		}
	}
}

// termKey is the rule-bucket string the grammar used to count terminals
// by, kept here as the reference for Stats, for pattern node e.
func termKey(e *rtl.Expr) string {
	switch e.Kind {
	case rtl.OpApp:
		return "op:" + string(e.Op) + ":" + strconv.Itoa(e.Width)
	case rtl.Read:
		return "mem:" + e.Storage
	case rtl.InsnField, rtl.Const:
		return "#const"
	case rtl.PortRef:
		return "port:" + e.Port
	case rtl.Slice:
		return "slice:" + strconv.Itoa(e.Hi) + ":" + strconv.Itoa(e.Lo)
	}
	return ""
}

// walkStats counts g's rules and the distinct terminals of its RT and
// stop rules' patterns by walking every rule, as Stats once did.
// Destination addresses are not patterns of a rule.
func walkStats(g *grammar.Grammar) grammar.Stats {
	st := grammar.Stats{Nonterminals: g.NumNT()}
	terms := make(map[string]bool)
	var walk func(h rtl.ExprID)
	walk = func(h rtl.ExprID) {
		if g.PatNT(h) != 0 {
			return
		}
		terms[termKey(g.Exprs().Expr(h))] = true
		for _, k := range g.Exprs().Kids(h) {
			walk(k)
		}
	}
	for i := range g.Rules {
		r := &g.Rules[i]
		switch r.Kind {
		case grammar.KindStart:
			st.StartRules++
		case grammar.KindRT:
			st.RTRules++
			walk(r.Pat)
		case grammar.KindStop:
			st.StopRules++
			terms["reg:"+g.NTNames[r.LHS]] = true
		}
		if r.IsChain() {
			st.ChainRules++
		}
	}
	st.Terminals = len(terms) + 1 // + ASSIGN
	return st
}

// TestStatsMatchesRuleWalk checks the counts Build keeps against a walk
// of the finished rules, for every bundled model and for a build in which
// one template fails partway through lowering.
func TestStatsMatchesRuleWalk(t *testing.T) {
	for name, tg := range bundledTargets(t) {
		if got, want := tg.Grammar.Stats(), walkStats(tg.Grammar); got != want {
			t.Errorf("%s: Stats = %+v; the rule walk gives %+v", name, got, want)
		}
	}

	// The second template lowers its memory read and the field addressing
	// it before meeting y.r, which is not in the spec; no terminal of it
	// may be counted.
	m := bdd.New()
	base := rtl.NewBase(m)
	s := base.Exprs()
	acc := s.Read("acc.r", 8, rtl.NoExpr)
	imm := s.Node(rtl.Expr{Kind: rtl.InsnField, Hi: 3, Lo: 0, Width: 4})
	for _, src := range []rtl.ExprID{
		s.Op(rtl.OpAdd, 8, acc, s.Const(1, 8)),
		s.Op(rtl.OpXor, 8, s.Read("tab.m", 8, imm), s.Read("y.r", 8, rtl.NoExpr)),
	} {
		base.Add(&rtl.Template{Dest: "acc.r", DestAddr: rtl.NoExpr, Width: 8, Src: src, Cond: rtl.ExecCond{Static: m.True()}})
	}
	g, err := grammar.Build(base, grammar.Spec{Storages: []grammar.StorageInfo{
		{Name: "acc.r", Width: 8, Size: 1},
		{Name: "tab.m", Width: 8, Size: 16},
	}})
	if err != nil {
		t.Fatal(err)
	}
	got, want := g.Stats(), walkStats(g)
	if got != want {
		t.Errorf("after a failed lowering: Stats = %+v; the rule walk gives %+v", got, want)
	}
	// op:+:8, #const and the stop rule's reg:acc.r, plus ASSIGN.
	if got.Terminals != 4 || got.RTRules != 1 {
		t.Errorf("after a failed lowering: %+v; want 4 terminals and 1 RT rule", got)
	}
}

// swappedTree returns e with the operands of the swap sites mask selects
// exchanged, sites numbered in pre-order.
func swappedTree(e *tree, mask uint64) *tree {
	site := 0
	var rec func(e *tree) *tree
	rec = func(e *tree) *tree {
		c := &tree{Expr: e.Expr}
		swap := false
		if e.swapSite() {
			swap = mask&(1<<uint(site)) != 0
			site++
		}
		for _, k := range e.kids {
			c.kids = append(c.kids, rec(k))
		}
		if swap {
			c.kids[0], c.kids[1] = c.kids[1], c.kids[0]
		}
		return c
	}
	return rec(e)
}

// TestSwapRulePatterns checks, on every bundled model, the pattern of
// each RT rule against its source tree with its swap applied, and the
// sharing Build promises: one handle per (source, mask), a swap
// pattern's subtrees without a masked site the origin's own handles, and
// a rule's address pattern its template's address handle.
func TestSwapRulePatterns(t *testing.T) {
	swaps := 0
	for name, tg := range bundledTargets(t) {
		g := tg.Grammar
		exprs := g.Exprs()
		type key struct {
			src  rtl.ExprID
			mask uint64
		}
		pats := make(map[key]rtl.ExprID)
		for i := range g.Rules {
			r := &g.Rules[i]
			if r.Kind != grammar.KindRT {
				continue
			}
			tpl := g.Template(r)
			src := treeOf(exprs, tpl.Src)
			if got := treeOf(exprs, r.Pat); !got.equal(swappedTree(src, r.Swap)) {
				t.Errorf("%s: rule %s: pattern %s, want the source %s swapped by %#x",
					name, g.Pattern(r), exprs.String(r.Pat), exprs.String(tpl.Src), r.Swap)
			}
			k := key{tpl.Src, r.Swap}
			if h, ok := pats[k]; ok && h != r.Pat {
				t.Errorf("%s: rule %s does not share the pattern of source %d, mask %#x", name, g.Pattern(r), k.src, k.mask)
			}
			pats[k] = r.Pat
			if r.Addr != tpl.DestAddr {
				t.Errorf("%s: rule %s: address pattern %d, want the template's address %d", name, g.Pattern(r), r.Addr, tpl.DestAddr)
			}
			if r.Swap == 0 {
				if r.Pat != tpl.Src {
					t.Errorf("%s: rule %s: pattern %d, want its source %d", name, g.Pattern(r), r.Pat, tpl.Src)
				}
				continue
			}
			swaps++
			mask, site := r.Swap, 0
			var rec func(e *tree, p, q rtl.ExprID)
			rec = func(e *tree, p, q rtl.ExprID) {
				n := e.swapSites()
				if mask>>uint(site)&(1<<uint(n)-1) == 0 {
					if p != q {
						t.Errorf("%s: swap rule %s copies %s, which holds no masked site", name, g.Pattern(r), exprs.String(p))
					}
					site += n
					return
				}
				if p == q {
					t.Fatalf("%s: swap rule %s shares %s, which holds a masked site", name, g.Pattern(r), exprs.String(p))
				}
				kids := exprs.Kids(q)
				if e.swapSite() {
					if mask&(1<<uint(site)) != 0 {
						kids = []rtl.ExprID{kids[1], kids[0]}
					}
					site++
				}
				for i, k := range e.kids {
					rec(k, exprs.Kids(p)[i], kids[i])
				}
			}
			rec(src, tpl.Src, r.Pat)
		}
	}
	if swaps == 0 {
		t.Error("no bundled model has a swap rule")
	}
}
