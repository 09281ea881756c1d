package rewrite

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/burs"
	"repro/internal/grammar"
	"repro/internal/hdl"
	"repro/internal/ise"
	"repro/internal/models"
	"repro/internal/netlist"
	"repro/internal/rtl"
)

// commuteVariants is the reference commutativity extension: every tree
// obtainable by swapping the operands of commutative operator nodes (all
// subsets of swap positions), the original among them.
func commuteVariants(e *rtl.Expr, limit int) []*rtl.Expr {
	var rec func(n *rtl.Expr) []*rtl.Expr
	rec = func(n *rtl.Expr) []*rtl.Expr {
		if n.Kind != rtl.OpApp {
			return []*rtl.Expr{n}
		}
		if len(n.Kids) == 1 {
			kidVars := rec(n.Kids[0])
			vars := make([]*rtl.Expr, 0, len(kidVars))
			for _, kv := range kidVars {
				vars = append(vars, rtl.NewOp(n.Op, n.Width, kv))
			}
			return vars
		}
		ls := rec(n.Kids[0])
		rs := rec(n.Kids[1])
		var vars []*rtl.Expr
		for _, l := range ls {
			for _, r := range rs {
				vars = append(vars, rtl.NewOp(n.Op, n.Width, l, r))
				if n.Op.Commutative() {
					vars = append(vars, rtl.NewOp(n.Op, n.Width, r, l))
				}
				if len(vars) > limit {
					return vars[:limit]
				}
			}
		}
		return vars
	}
	return rec(e)
}

// extendMaterialised is the reference extension: Extend as it was when
// every commutative swap became a template of its own, built, interned
// and added with AddVariant's merging.
func extendMaterialised(base *rtl.Base, opts Options) int {
	if opts.MaxVariantsPerTemplate <= 0 {
		opts.MaxVariantsPerTemplate = 128
	}
	before := base.Len()
	snapshot := append([]*rtl.Template(nil), base.Templates...)
	store := base.Exprs()
	for _, t := range snapshot {
		var trees []*rtl.Expr
		if opts.Commutativity {
			trees = append(trees, commuteVariants(t.Src, opts.MaxVariantsPerTemplate)...)
		}
		trees = append(trees, ruleVariants(t.Src, opts.Rules, opts.MaxVariantsPerTemplate)...)
		for _, v := range trees {
			if id := store.Intern(v); id != t.SrcID() {
				base.AddVariant(t, id)
			}
		}
	}
	return base.Len() - before
}

// entries lists every entry of b in ID order.
func entries(b *rtl.Base) []rtl.Swap {
	var out []rtl.Swap
	b.Each(func(s rtl.Swap) { out = append(out, s) })
	return out
}

// entryLine renders entry s with its destination kind, condition node,
// guard count, width and provenance.
func entryLine(s rtl.Swap) string {
	t := s.Of
	return fmt.Sprintf("%d: %s port=%v cond=%d dynamic=%d width=%d synthetic=%v",
		s.ID, s, t.DestPort, t.Cond.Static, len(t.Cond.Dynamic), t.Width, t.Synthetic || s.Mask != 0)
}

// entryLines renders every entry of b with entryLine.
func entryLines(b *rtl.Base) []string {
	var out []string
	for _, s := range entries(b) {
		out = append(out, entryLine(s))
	}
	return out
}

// swappedSrc builds the source tree of entry s: its template's source
// with the operands of the swap sites its mask selects exchanged.
func swappedSrc(s rtl.Swap) *rtl.Expr {
	site := 0
	var rec func(e *rtl.Expr) *rtl.Expr
	rec = func(e *rtl.Expr) *rtl.Expr {
		c := *e
		swap := false
		if e.SwapSite() {
			swap = s.Mask&(1<<uint(site)) != 0
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
	return rec(s.Of.Src)
}

// sameEntries fails t unless got and want list the same entries: equal
// entryLines, and structurally equal (Equal, node widths included)
// destination addresses and sources, a swap's read as its swapped tree.
func sameEntries(t *testing.T, name string, got, want *rtl.Base) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d entries; reference has %d", name, got.Len(), want.Len())
	}
	g, w := entries(got), entries(want)
	for i := range w {
		if gl, wl := entryLine(g[i]), entryLine(w[i]); gl != wl {
			t.Fatalf("%s: entry\n  %s\nreference\n  %s", name, gl, wl)
		}
		if !g[i].Of.DestAddr.Equal(w[i].Of.DestAddr) || !swappedSrc(g[i]).Equal(swappedSrc(w[i])) {
			t.Fatalf("%s: entry %s differs in structure from the reference's", name, g[i])
		}
	}
	if got.String() != want.String() {
		t.Fatalf("%s: base renderings differ", name)
	}
}

// extracted extracts src's template base and returns it with its netlist.
func extracted(t *testing.T, src string) (*rtl.Base, *netlist.Netlist) {
	t.Helper()
	model, err := hdl.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netlist.Elaborate(model)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ise.Extract(net, ise.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Base, net
}

// subjectTrees returns n seeded random subject trees over base's
// operators, storages and constants: template sources whose register
// reads are replaced, at random, by other sources of their width, whose
// commutative operands are exchanged at random, and whose immediates
// become small constants.
func subjectTrees(base *rtl.Base, rng *rand.Rand, n int) []*rtl.Expr {
	var srcs []*rtl.Expr
	byWidth := map[int][]*rtl.Expr{}
	for _, t := range base.Templates {
		if len(t.Cond.Dynamic) == 0 {
			srcs = append(srcs, t.Src)
			byWidth[t.Src.Width] = append(byWidth[t.Src.Width], t.Src)
		}
	}
	var grow func(e *rtl.Expr, depth int) *rtl.Expr
	grow = func(e *rtl.Expr, depth int) *rtl.Expr {
		switch e.Kind {
		case rtl.InsnField:
			return rtl.NewConst(rng.Int63n(4), e.Width)
		case rtl.Read:
			if a := e.Addr(); a != nil {
				return rtl.NewRead(e.Storage, e.Width, grow(a, 0))
			}
			if cands := byWidth[e.Width]; depth > 0 && len(cands) > 0 && rng.Intn(2) == 0 {
				return grow(cands[rng.Intn(len(cands))], depth-1)
			}
			return e
		case rtl.Slice:
			return &rtl.Expr{Kind: rtl.Slice, Hi: e.Hi, Lo: e.Lo, Width: e.Width, Kids: []*rtl.Expr{grow(e.Kids[0], depth)}}
		case rtl.OpApp:
			kids := make([]*rtl.Expr, len(e.Kids))
			for i, k := range e.Kids {
				kids[i] = grow(k, depth)
			}
			if e.SwapSite() && rng.Intn(3) == 0 {
				kids[0], kids[1] = kids[1], kids[0]
			}
			return rtl.NewOp(e.Op, e.Width, kids...)
		}
		return e
	}
	out := make([]*rtl.Expr, n)
	for i := range out {
		out[i] = grow(srcs[rng.Intn(len(srcs))], 2)
	}
	return out
}

// ruleRT renders the RT that rule ri of g selects, "" for no rule or a
// rule without a template.
func ruleRT(g *grammar.Grammar, ri int) string {
	if ri < 0 || g.Template(&g.Rules[ri]) == nil {
		return ""
	}
	return rtl.Swap{Of: g.Template(&g.Rules[ri]), Mask: g.Rules[ri].Swap}.String()
}

// sameLabels fails t unless the two labellings of handle h of s agree
// at every node of its tree: the cost from every nonterminal, the position
// of the rule achieving it and the RT it renders.  It returns the number
// of labels a swap rule won.
func sameLabels(t *testing.T, name string, gg, wg *grammar.Grammar, s *rtl.Store, got, want *burs.Labels, h rtl.ExprID) int {
	t.Helper()
	swaps := 0
	for nt := 0; nt < gg.NumNT(); nt++ {
		gr, wr := got.Rule(h, nt), want.Rule(h, nt)
		if got.Cost(h, nt) != want.Cost(h, nt) || gr != wr || ruleRT(gg, gr) != ruleRT(wg, wr) {
			t.Fatalf("%s: at %s from nonterminal %d: cost %d by rule %d (%s); reference: cost %d by rule %d (%s)",
				name, s.Expr(h), nt, got.Cost(h, nt), gr, ruleRT(gg, gr), want.Cost(h, nt), wr, ruleRT(wg, wr))
		}
		if gr >= 0 && gg.Rules[gr].Swap != 0 {
			swaps++
		}
	}
	for _, k := range s.Kids(h) {
		swaps += sameLabels(t, name, gg, wg, s, got, want, k)
	}
	return swaps
}

// TestExtendMemoMatchesFresh is the differential guard of swap entries
// and of Extend's per-source memo: on every bundled model and micro16,
// under the default options, without commutativity and with a tight
// variant limit, Extend and the materialising per-template reference give
// the same entries, the same grammar (statistics and rendering) and the
// same labels — cost, rule position and rendered RT at every node — on
// seeded random subject trees.
func TestExtendMemoMatchesFresh(t *testing.T) {
	sources := map[string]string{"micro16": micro16}
	for _, m := range models.All() {
		sources[m.Name] = m.MDL
	}
	sources["brancher"], _ = models.Get("brancher")
	noComm := DefaultOptions()
	noComm.Commutativity = false
	tight := DefaultOptions()
	tight.MaxVariantsPerTemplate = 3
	swapWins := 0
	for name, src := range sources {
		for oi, opts := range []Options{DefaultOptions(), noComm, tight} {
			name := fmt.Sprintf("%s/%d", name, oi)
			got, net := extracted(t, src)
			want, _ := extracted(t, src)
			Extend(got, opts)
			extendMaterialised(want, opts)
			sameEntries(t, name, got, want)

			spec := grammar.SpecFromNetlist(net)
			gg, err := grammar.Build(got, spec)
			if err != nil {
				t.Fatal(err)
			}
			wg, err := grammar.Build(want, spec)
			if err != nil {
				t.Fatal(err)
			}
			if gg.Stats() != wg.Stats() || gg.String() != wg.String() {
				t.Fatalf("%s: grammar %+v differs from the reference's %+v", name, gg.Stats(), wg.Stats())
			}
			// Both grammars label one subject store.
			var s rtl.Store
			gl, wl := burs.NewParser(gg).NewLabels(&s), burs.NewParser(wg).NewLabels(&s)
			for _, e := range subjectTrees(want, rand.New(rand.NewSource(int64(len(name)))), 150) {
				h := s.Intern(e)
				gl.Label(h)
				wl.Label(h)
				swapWins += sameLabels(t, name, gg, wg, &s, gl, wl, h)
			}
		}
	}
	if swapWins == 0 {
		t.Fatal("no label was won by a swap rule: the trees do not exercise swaps")
	}
}

// TestExtendCollisions covers swaps that meet another transfer, which
// Extend must merge and deduplicate as the materialising reference does:
// a swap equal to its own source, two swaps of one source equal to each
// other, a template equal to another one swapped, and a swap equal to a
// rule variant.  A source whose swaps meet nothing stays swap entries.
// Seeded random bases over a few operands, destinations, conditions and
// dynamic guards mix all of these.
func TestExtendCollisions(t *testing.T) {
	a, b, c := read("a.r"), read("b.r"), read("c.r")
	add := func(x, y *rtl.Expr) *rtl.Expr { return rtl.NewOp(rtl.OpAdd, 16, x, y) }
	mul := func(x, y *rtl.Expr) *rtl.Expr { return rtl.NewOp(rtl.OpMul, 16, x, y) }
	type tpl struct {
		dest    string
		src     *rtl.Expr
		cond    int  // BDD variable of the condition, -1 for true
		guarded bool // carries a dynamic guard
	}
	// check extends a base of tpls both ways and returns Extend's.
	check := func(name string, tpls []tpl) *rtl.Base {
		build := func() *rtl.Base {
			m := bdd.New()
			base := rtl.NewBase(m)
			for _, tp := range tpls {
				cond := rtl.ExecCond{Static: m.True()}
				if tp.cond >= 0 {
					cond.Static = m.Var(tp.cond)
				}
				if tp.guarded {
					cond.Dynamic = []*rtl.Expr{read("f.r")}
				}
				base.Add(&rtl.Template{Dest: tp.dest, Src: tp.src, Width: 16, Cond: cond})
			}
			return base
		}
		got, want := build(), build()
		Extend(got, DefaultOptions())
		extendMaterialised(want, DefaultOptions())
		sameEntries(t, name, got, want)
		return got
	}
	cases := []struct {
		name  string
		tpls  []tpl
		swaps bool // whether some swaps stay entries
	}{
		{"a+a", []tpl{{"acc.r", add(a, a), -1, false}}, false},
		{"(a+b)*(b+a)", []tpl{{"acc.r", mul(add(a, b), add(b, a)), -1, false}}, false},
		{"template equals a swap", []tpl{{"acc.r", add(a, b), 0, false}, {"acc.r", add(b, a), 1, false}}, false},
		{"swap of a nested swap", []tpl{{"acc.r", add(add(a, b), c), 0, false}, {"acc.r", add(add(b, a), c), 1, false}}, false},
		{"swap equals a rule variant", []tpl{
			{"acc.r", rtl.NewOp(rtl.OpShl, 16, a, rtl.NewConst(1, 4)), 0, false},
			{"acc.r", mul(rtl.NewConst(2, 16), a), 1, false}}, false},
		{"distinct destinations", []tpl{{"acc.r", add(a, b), 0, false}, {"x.r", add(b, a), 1, false}}, true},
	}
	for _, tc := range cases {
		if got := check(tc.name, tc.tpls); tc.swaps != (len(got.Swaps) > 0) {
			t.Errorf("%s: %d swap entries:\n%s", tc.name, len(got.Swaps), strings.Join(entryLines(got), "\n"))
		}
	}

	// Random bases draw each template as a randomly commuted copy of one
	// of a few seed trees, so that classes meet often.
	rng := rand.New(rand.NewSource(32))
	leaves := []*rtl.Expr{a, b, c, rtl.NewConst(2, 16), rtl.NewOp(rtl.OpShl, 16, a, rtl.NewConst(1, 4))}
	ops := []rtl.Op{rtl.OpAdd, rtl.OpMul, rtl.OpAnd, rtl.OpSub}
	var tree func(depth int) *rtl.Expr
	tree = func(depth int) *rtl.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			return leaves[rng.Intn(len(leaves))]
		}
		return rtl.NewOp(ops[rng.Intn(len(ops))], 16, tree(depth-1), tree(depth-1))
	}
	var commuted func(e *rtl.Expr) *rtl.Expr
	commuted = func(e *rtl.Expr) *rtl.Expr {
		if e.Kind != rtl.OpApp || len(e.Kids) != 2 {
			return e
		}
		l, r := commuted(e.Kids[0]), commuted(e.Kids[1])
		if e.SwapSite() && rng.Intn(2) == 0 {
			l, r = r, l
		}
		return rtl.NewOp(e.Op, e.Width, l, r)
	}
	kept, merged := 0, 0
	for i := 0; i < 300; i++ {
		seeds := []*rtl.Expr{tree(3), tree(3), tree(2)}
		tpls := make([]tpl, 2+rng.Intn(6))
		for j := range tpls {
			tpls[j] = tpl{[]string{"acc.r", "x.r"}[rng.Intn(2)], commuted(seeds[rng.Intn(len(seeds))]),
				rng.Intn(4) - 1, rng.Intn(8) == 0}
		}
		got := check(fmt.Sprintf("random %d", i), tpls)
		kept += len(got.Swaps)
		for _, tp := range got.Templates {
			if tp.Synthetic && tp.Src.SwapSites() > 0 {
				merged++ // a built swap, or a rule variant with sites
			}
		}
	}
	if kept == 0 || merged == 0 {
		t.Fatalf("random bases kept %d swap entries and built %d; want both > 0", kept, merged)
	}
}

// micro16 is core's property-test machine (internal/core/core_test.go).
const micro16 = `
PROCESSOR micro16;
CONST WORD = 16;

MODULE Alu (IN a: WORD; IN b: WORD; IN op: 3; OUT y: WORD);
BEGIN
  y <- CASE op OF
         0: a + b;
         1: a - b;
         2: a & b;
         3: a | b;
         4: a ^ b;
         5: b;
         6: a * b;
         7: -b;
       END;
END;

MODULE BMux (IN mem: WORD; IN imm: WORD; IN s: 1; OUT y: WORD);
BEGIN
  y <- CASE s OF 0: mem; 1: imm; END;
END;

MODULE Reg (IN d: WORD; IN ld: 1; OUT q: WORD);
VAR r: WORD;
BEGIN q <- r; AT ld == 1 DO r <- d; END;

MODULE Ram (IN a: 8; IN d: WORD; IN w: 1; OUT q: WORD);
VAR m: WORD [256];
BEGIN q <- m[a]; AT w == 1 DO m[a] <- d; END;

MODULE Rom (IN a: 8; OUT q: 24);
VAR m: 24 [256];
BEGIN q <- m[a]; END;

MODULE Inc (IN a: 8; OUT y: 8);
BEGIN y <- a + 1; END;

MODULE PcReg (IN d: 8; OUT q: 8);
VAR r: 8;
BEGIN q <- r; r <- d; END;

PARTS
  alu  : Alu;
  bmux : BMux;
  acc  : Reg;
  ram  : Ram;
  imem : Rom INSTRUCTION;
  pc   : PcReg PC;
  pinc : Inc;

CONNECT
  alu.a    <- acc.q;
  alu.b    <- bmux.y;
  alu.op   <- imem.q[23:21];
  bmux.mem <- ram.q;
  bmux.imm <- imem.q[15:0];
  bmux.s   <- imem.q[20];
  acc.d    <- alu.y;
  acc.ld   <- imem.q[19];
  ram.a    <- imem.q[7:0];
  ram.d    <- acc.q;
  ram.w    <- imem.q[18];
  imem.a   <- pc.q;
  pinc.a   <- pc.q;
  pc.d     <- pinc.y;
END.
`
