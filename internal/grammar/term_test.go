package grammar_test

import (
	"context"
	"reflect"
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

// TestTermAgreesWithMatchesLeaf labels nothing: it checks that whenever a
// rule's root matches a subject node, the node's terminal is the rule's,
// so bucketing by terminal never hides a matching rule from the parser.
// It covers every bundled grammar against the subject trees (sources and
// destination addresses) of every DSPStone kernel that binds there.
func TestTermAgreesWithMatchesLeaf(t *testing.T) {
	for name, tg := range bundledTargets(t) {
		g := tg.Grammar
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
				for _, tree := range []*rtl.Expr{et.Src, et.DestAddr} {
					tree.Walk(func(n *rtl.Expr) {
						term := g.SubjectTerm(n)
						for _, r := range g.Rules {
							if r.Kind == grammar.KindStart || r.IsChain() || !r.Pat.MatchesLeaf(n) {
								continue
							}
							checked++
							if r.Term != term {
								t.Fatalf("%s: rule %s matches %s at its root, but has terminal %d and the node %d",
									name, r, n, r.Term, term)
							}
						}
					})
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no rule matched any kernel node", name)
		}
	}
}

// termKey is the rule-bucket string the grammar used to count terminals
// by, kept here as the reference for Stats.
func termKey(p *grammar.Pat) string {
	switch p.Kind {
	case grammar.PatOp:
		return "op:" + string(p.Op) + ":" + strconv.Itoa(p.Width)
	case grammar.PatReg:
		return "reg:" + p.Storage
	case grammar.PatMem:
		return "mem:" + p.Storage
	case grammar.PatImm, grammar.PatConst:
		return "#const"
	case grammar.PatPort:
		return "port:" + p.Port
	case grammar.PatSlice:
		return "slice:" + strconv.Itoa(p.Hi) + ":" + strconv.Itoa(p.Lo)
	}
	return ""
}

// walkStats counts g's rules and the distinct terminals of its RT and
// stop rules' patterns by walking every rule, as Stats once did.
func walkStats(g *grammar.Grammar) grammar.Stats {
	st := grammar.Stats{Nonterminals: g.NumNT()}
	terms := make(map[string]bool)
	var walk func(p *grammar.Pat)
	walk = func(p *grammar.Pat) {
		if p.Kind != grammar.PatNT {
			terms[termKey(p)] = true
		}
		for _, k := range p.Kids {
			walk(k)
		}
	}
	for _, r := range g.Rules {
		switch r.Kind {
		case grammar.KindStart:
			st.StartRules++
		case grammar.KindRT:
			st.RTRules++
			walk(r.Pat)
		case grammar.KindStop:
			st.StopRules++
			walk(r.Pat)
		}
		if r.Kind != grammar.KindStart && r.IsChain() {
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
// each RT rule against the lowering of its source tree with its swap
// applied, and the sharing Build promises: one pattern per (source,
// mask), a swap pattern's subtrees without a masked site taken from the
// origin's pattern, and one address pattern per address.
func TestSwapRulePatterns(t *testing.T) {
	swaps := 0
	for name, tg := range bundledTargets(t) {
		g := tg.Grammar
		type key struct {
			src  rtl.ExprID
			mask uint64
		}
		pats := make(map[key]*grammar.Pat)
		addrs := make(map[rtl.ExprID]*grammar.Pat)
		origin := make(map[*rtl.Template]*grammar.Pat)
		for _, r := range g.Rules {
			if r.Kind != grammar.KindRT {
				continue
			}
			tpl := r.Template
			want, err := g.Lower(swappedTree(tpl.Src, r.Swap))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(r.Pat, want) || r.Pat.String() != want.String() {
				t.Errorf("%s: rule %s: pattern %s, want the swapped lowering %s", name, r, r.Pat, want)
			}
			k := key{tpl.SrcID(), r.Swap}
			if p, ok := pats[k]; ok && p != r.Pat {
				t.Errorf("%s: rule %s does not share the pattern of source %d, mask %#x", name, r, k.src, k.mask)
			}
			pats[k] = r.Pat
			if r.Swap == 0 {
				origin[tpl] = r.Pat
			}
			if tpl.DestAddr == nil {
				if r.AddrPat != nil {
					t.Errorf("%s: rule %s has an address pattern but no destination address", name, r)
				}
				continue
			}
			wantAddr, err := g.Lower(tpl.DestAddr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(r.AddrPat, wantAddr) {
				t.Errorf("%s: rule %s: address pattern %s, want %s", name, r, r.AddrPat, wantAddr)
			}
			if p, ok := addrs[tpl.AddrID()]; ok && p != r.AddrPat {
				t.Errorf("%s: rule %s does not share the pattern of address %d", name, r, tpl.AddrID())
			}
			addrs[tpl.AddrID()] = r.AddrPat
		}
		for _, r := range g.Rules {
			if r.Kind != grammar.KindRT || r.Swap == 0 {
				continue
			}
			swaps++
			p, ok := origin[r.Template]
			if !ok {
				t.Fatalf("%s: swap rule %s has no origin rule", name, r)
			}
			mask, site := r.Swap, 0
			var rec func(e *rtl.Expr, p, q *grammar.Pat)
			rec = func(e *rtl.Expr, p, q *grammar.Pat) {
				n := e.SwapSites()
				if mask>>uint(site)&(1<<uint(n)-1) == 0 {
					if p != q {
						t.Errorf("%s: swap rule %s copies %s, which holds no masked site", name, r, p)
					}
					site += n
					return
				}
				if p == q {
					t.Fatalf("%s: swap rule %s shares %s, which holds a masked site", name, r, p)
				}
				kids := q.Kids
				if e.SwapSite() {
					if mask&(1<<uint(site)) != 0 {
						kids = []*grammar.Pat{q.Kids[1], q.Kids[0]}
					}
					site++
				}
				for i, k := range e.Kids {
					rec(k, p.Kids[i], kids[i])
				}
			}
			rec(r.Template.Src, p, r.Pat)
		}
	}
	if swaps == 0 {
		t.Error("no bundled model has a swap rule")
	}
}
