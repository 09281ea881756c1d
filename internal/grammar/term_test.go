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

// leafMatches is the leaf-level match of the pattern node of handle h
// against subject node n, by comparing the two nodes' own fields: the
// reference for matching by terminal ID.
func leafMatches(g *grammar.Grammar, h rtl.ExprID, n *rtl.Expr) bool {
	p := g.Exprs().Expr(h)
	switch p.Kind {
	case rtl.OpApp:
		return n.Kind == rtl.OpApp && n.Op == p.Op && n.Width == p.Width && len(n.Kids) == len(p.Kids)
	case rtl.Read:
		return n.Kind == rtl.Read && n.Addr() != nil && n.Storage == p.Storage
	case rtl.InsnField:
		return n.Kind == rtl.Const && grammar.FitsField(n.Val, p.Hi-p.Lo+1)
	case rtl.Const:
		return n.Kind == rtl.Const && n.Val == p.Val
	case rtl.PortRef:
		return n.Kind == rtl.PortRef && n.Port == p.Port
	case rtl.Slice:
		return n.Kind == rtl.Slice && n.Hi == p.Hi && n.Lo == p.Lo
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
			for _, et := range ets {
				for _, tree := range []*rtl.Expr{b.Exprs().Expr(et.Src), b.Exprs().Expr(et.DestAddr)} {
					tree.Walk(func(n *rtl.Expr) {
						term := g.SubjectTerm(n)
						for _, h := range pats {
							match, same := leafMatches(g, h, n), g.PatTerm(h) == term
							if match {
								checked++
							}
							// Terminal IDs agree on everything but a
							// constant's value or fit.
							if c := g.Exprs().Expr(h).Kind; c == rtl.Const || c == rtl.InsnField {
								same = same && match
							}
							if match != same {
								t.Fatalf("%s: pattern node %s at %s: leaf match %v, terminals %d and %d",
									name, g.Exprs().Expr(h), n, match, g.PatTerm(h), term)
							}
						}
					})
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
	acc := rtl.NewRead("acc.r", 8, nil)
	for _, src := range []*rtl.Expr{
		rtl.NewOp(rtl.OpAdd, 8, acc, rtl.NewConst(1, 8)),
		rtl.NewOp(rtl.OpXor, 8, rtl.NewRead("tab.m", 8, rtl.NewInsnField(3, 0)), rtl.NewRead("y.r", 8, nil)),
	} {
		base.Add(&rtl.Template{Dest: "acc.r", Width: 8, Src: src, Cond: rtl.ExecCond{Static: m.True()}})
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
func swappedTree(e *rtl.Expr, mask uint64) *rtl.Expr {
	site := 0
	var rec func(e *rtl.Expr) *rtl.Expr
	rec = func(e *rtl.Expr) *rtl.Expr {
		c := *e
		swap := false
		if e.SwapSite() {
			swap = mask&(1<<uint(site)) != 0
			site++
		}
		c.Kids = make([]*rtl.Expr, len(e.Kids))
		for i, k := range e.Kids {
			c.Kids[i] = rec(k)
		}
		if swap {
			c.Kids[0], c.Kids[1] = c.Kids[1], c.Kids[0]
		}
		return &c
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
			want := swappedTree(tpl.Src, r.Swap)
			if got := exprs.Expr(r.Pat); !got.Equal(want) || got.String() != want.String() {
				t.Errorf("%s: rule %s: pattern %s, want the swapped source %s", name, g.Pattern(r), got, want)
			}
			k := key{tpl.SrcID(), r.Swap}
			if h, ok := pats[k]; ok && h != r.Pat {
				t.Errorf("%s: rule %s does not share the pattern of source %d, mask %#x", name, g.Pattern(r), k.src, k.mask)
			}
			pats[k] = r.Pat
			if r.Addr != tpl.AddrID() {
				t.Errorf("%s: rule %s: address pattern %d, want the template's address %d", name, g.Pattern(r), r.Addr, tpl.AddrID())
			}
			if r.Swap == 0 {
				if r.Pat != tpl.SrcID() {
					t.Errorf("%s: rule %s: pattern %d, want its source %d", name, g.Pattern(r), r.Pat, tpl.SrcID())
				}
				continue
			}
			swaps++
			mask, site := r.Swap, 0
			var rec func(e *rtl.Expr, p, q rtl.ExprID)
			rec = func(e *rtl.Expr, p, q rtl.ExprID) {
				n := e.SwapSites()
				if mask>>uint(site)&(1<<uint(n)-1) == 0 {
					if p != q {
						t.Errorf("%s: swap rule %s copies %s, which holds no masked site", name, g.Pattern(r), e)
					}
					site += n
					return
				}
				if p == q {
					t.Fatalf("%s: swap rule %s shares %s, which holds a masked site", name, g.Pattern(r), e)
				}
				kids := exprs.Kids(q)
				if e.SwapSite() {
					if mask&(1<<uint(site)) != 0 {
						kids = []rtl.ExprID{kids[1], kids[0]}
					}
					site++
				}
				for i, k := range e.Kids {
					rec(k, exprs.Kids(p)[i], kids[i])
				}
			}
			rec(tpl.Src, tpl.SrcID(), r.Pat)
		}
	}
	if swaps == 0 {
		t.Error("no bundled model has a swap rule")
	}
}
