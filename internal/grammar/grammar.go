// Package grammar translates an (extended) RT template base into a tree
// grammar, following paper section 3.1.
//
// The grammar G = (Σ_T, Σ_N, S, R, c) is constructed so that exactly the
// expression trees of the intermediate representation can be derived from
// the start symbol:
//
//   - Terminals: the designated ASSIGN symbol plus Term(x) for every
//     sequential component, primary port, hardware operator and hardwired
//     constant.  Instruction-field immediates appear as IMM terminals that
//     match any program constant fitting the field.
//
//   - Nonterminals: the designated START symbol plus NonTerm(x) for every
//     sequential component and primary port — registers double as
//     "temporary locations" for intermediate results, which is what makes
//     special-purpose register allocation fall out of tree parsing.
//
//   - Rules: start rules START → ASSIGN(Term(dest), NonTerm(dest)) at cost
//     0 for every possible ET destination; one RT rule NonTerm(dest) →
//     L(src) at cost 1 per entry of the template base (table 2 of the
//     paper); and stop rules NonTerm(reg) → Term(reg) at cost 0
//     terminating derivations at leaves.
//
// A pattern is a template tree, not a copy of one: an RT rule's pattern
// is the handle of its source in the base's expression store
// (rtl.Base.Exprs), read through per-handle arrays that Build fills once
// for each handle a rule reaches.  A handle is either a terminal node,
// whose terminal ID is the same one a subject node of that shape looks up
// (SubjectTerm), or an address-less read of a spec storage, which stands
// for that storage's nonterminal.  The commutative swaps of the base
// (rtl.Swap) are resolved here: a swap's rule gets the handle of its
// swapped source tree, interned into the same store during Build, so the
// parser and the code selector match plain patterns and never read a swap
// mask.  Rules hold no pointer: rule lists are slices of rule indices.
package grammar

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/diag"
	"repro/internal/faultpoint"
	"repro/internal/obs"

	"repro/internal/netlist"
	"repro/internal/rtl"
)

// Terminal kinds.  Immediates and hardwired constants share one terminal,
// since both match program constants.
const (
	termOp uint8 = iota
	termReg
	termMem
	termConst
	termPort
	termSlice
)

// term identifies a terminal symbol: the part of a node's root that a
// pattern node and the subject node at that position must agree on.
type term struct {
	kind  uint8
	width int32  // termOp
	hi    int32  // termSlice
	lo    int32  // termSlice
	name  string // operator, storage or port
}

// subjectTerm returns the terminal a subject or pattern node e falls
// under; ok is false for a node no pattern can match at its root.  An
// address-less read is a register terminal here; inside a pattern it
// stands for its storage's nonterminal instead.
func subjectTerm(e *rtl.Expr) (term, bool) {
	switch e.Kind {
	case rtl.OpApp:
		return term{kind: termOp, width: int32(e.Width), name: string(e.Op)}, true
	case rtl.Read:
		if e.Addr() != nil {
			return term{kind: termMem, name: e.Storage}, true
		}
		return term{kind: termReg, name: e.Storage}, true
	case rtl.Const, rtl.InsnField:
		// Fields in subject trees behave like immediates.
		return term{kind: termConst}, true
	case rtl.PortRef:
		return term{kind: termPort, name: e.Port}, true
	case rtl.Slice:
		return term{kind: termSlice, hi: int32(e.Hi), lo: int32(e.Lo)}, true
	}
	return term{}, false
}

// FitsField reports whether v can be encoded in a w-bit instruction field
// (unsigned or two's-complement signed).
func FitsField(v int64, w int) bool {
	if w >= 64 {
		return true
	}
	if v >= 0 {
		return v < 1<<uint(w)
	}
	return v >= -(1 << uint(w-1))
}

// RuleKind classifies rules per the paper's three groups.
type RuleKind uint8

// Rule kinds.
const (
	KindStart RuleKind = iota
	KindRT
	KindStop
)

func (k RuleKind) String() string {
	switch k {
	case KindStart:
		return "start"
	case KindRT:
		return "rt"
	case KindStop:
		return "stop"
	}
	return "?"
}

// Rule is one grammar rule "LHS → pattern" with cost and provenance.  It
// holds no pointer; the grammar resolves its handles and template index.
type Rule struct {
	// Swap is the mask of a KindRT rule for a swap entry of the base
	// (rtl.Swap), kept for the listing: Pat is already the swapped
	// pattern.
	Swap uint64
	Kind RuleKind
	LHS  int32 // nonterminal index (START for start rules)
	Cost int32
	// Pat is the handle of a KindRT rule's pattern in the base's store:
	// its template's source, or the swapped source of a swap entry.
	// NoExpr for start and stop rules, whose patterns are a bare
	// nonterminal (Dest) and a bare terminal (Term).
	Pat rtl.ExprID
	// Addr is the handle of a KindRT rule's destination-address pattern,
	// NoExpr when its template has no destination address or the
	// address cannot be lowered.
	Addr rtl.ExprID
	// Term is the terminal ID of the pattern's root, the RulesByTerm
	// bucket the rule is filed in; -1 for start and chain rules.
	Term int32
	// Dest is a start rule's destination nonterminal.
	Dest int32
	// Tmpl is a KindRT rule's template: its index in the base's
	// Templates (see Grammar.Template); -1 for other rules.
	Tmpl int32
}

// IsChain reports whether the rule is an RT rule whose pattern is a bare
// nonterminal (a chain rule for the dynamic-programming closure).
func (r *Rule) IsChain() bool { return r.Kind == KindRT && r.Term < 0 }

// patNode is what the grammar knows of one handle of the base's store.
type patNode struct {
	// term is the handle's terminal ID, -1 for a nonterminal leaf or a
	// handle no rule reaches.
	term int32
	// nt is the nonterminal an address-less read of a spec storage
	// stands for, 0 (START) for every other handle.
	nt int32
	// state is unseen, lowerable (every node of the tree lowers) or
	// numbered (every terminal of the tree has its ID as well).
	state uint8
}

const (
	unseen uint8 = iota
	lowerable
	numbered
)

// Grammar is the constructed tree grammar.
type Grammar struct {
	// NTNames[i] names nonterminal i; index 0 is START.
	NTNames []string
	ntIdx   map[string]int

	Rules []Rule
	// RulesByTerm indexes non-chain RT and stop rules by the terminal ID
	// of their pattern's root (see SubjectTerm); entries are indices
	// into Rules, in rule order, as in every rule list below.
	RulesByTerm [][]int32
	// ChainRules[src] lists the chain rules deriving from nonterminal
	// src.
	ChainRules [][]int32
	// StartRules[nt] is the start rule for destination nonterminal nt,
	// -1 for START.
	StartRules []int32
	// StoreRules[nt] lists the RT rules writing nt that have an address
	// pattern: the final stores an addressable destination can take.
	StoreRules [][]int32

	// StorageWidths/Sizes echo the machine spec for clients.
	Spec Spec

	base *rtl.Base
	// nodes[h] describes handle h of the base's store; terms numbers the
	// terminals.
	nodes []patNode
	terms map[term]int32

	stats Stats // counted as Build adds rules
}

// START is the index of the start symbol.
const START = 0

// NT returns the index for the nonterminal of object name (a storage
// qualified name or port name), or -1.
func (g *Grammar) NT(name string) int {
	if i, ok := g.ntIdx[name]; ok {
		return i
	}
	return -1
}

// NumNT returns the number of nonterminals.
func (g *Grammar) NumNT() int { return len(g.NTNames) }

// Exprs returns the store the rules' pattern handles index: the base's.
func (g *Grammar) Exprs() *rtl.Store { return g.base.Exprs() }

// PatNT returns the nonterminal that pattern handle h stands for, or 0
// when h is a terminal node.
func (g *Grammar) PatNT(h rtl.ExprID) int { return int(g.nodes[h].nt) }

// PatTerm returns the terminal ID of pattern handle h, or -1 for a
// nonterminal leaf.
func (g *Grammar) PatTerm(h rtl.ExprID) int32 { return g.nodes[h].term }

// Template returns the template of a KindRT rule, nil for other rules.
func (g *Grammar) Template(r *Rule) *rtl.Template {
	if r.Tmpl < 0 {
		return nil
	}
	return g.base.Templates[r.Tmpl]
}

// SubjectTerm returns the terminal ID of subject node e, the RulesByTerm
// bucket holding every rule whose root can match e, or -1 when no rule's
// can.
func (g *Grammar) SubjectTerm(e *rtl.Expr) int32 {
	if t, ok := subjectTerm(e); ok {
		if id, ok := g.terms[t]; ok {
			return id
		}
	}
	return -1
}

// StorageInfo describes one sequential component to the grammar builder.
type StorageInfo struct {
	Name  string // qualified name
	Width int
	Size  int // 1 for plain registers
}

// Spec is the machine information the grammar builder needs beyond the
// template base.
type Spec struct {
	Storages []StorageInfo
	OutPorts []string
}

// SpecFromNetlist derives a Spec from an elaborated netlist (data storages
// plus primary output ports).
func SpecFromNetlist(n *netlist.Netlist) Spec {
	var s Spec
	for _, st := range n.DataStorages() {
		s.Storages = append(s.Storages, StorageInfo{
			Name: st.QName(), Width: st.Width(), Size: st.Size(),
		})
	}
	for name := range n.PrimaryOut {
		s.OutPorts = append(s.OutPorts, name)
	}
	sort.Strings(s.OutPorts)
	return s
}

// Build constructs the tree grammar from a template base and machine spec.
func Build(base *rtl.Base, spec Spec) (*Grammar, error) {
	return BuildReported(base, spec, nil)
}

// BuildReported is Build with degraded-mode diagnostics: a template that
// cannot be lowered into a pattern is skipped with a warning on rep (its RT
// simply stays unselectable) instead of failing the whole build.  The build
// fails only when no selectable rule survives.  rep may be nil.
//
// Build interns the swapped sources of the base's swap entries into the
// base's store; it is the only writer of that store after extension.
func BuildReported(base *rtl.Base, spec Spec, rep *diag.Reporter) (*Grammar, error) {
	nNT := 1 + len(spec.Storages) + len(spec.OutPorts)
	g := &Grammar{
		NTNames: append(make([]string, 0, nNT), "START"),
		// At most a start and a stop rule per storage, a start rule per
		// port and an RT rule per entry of the base.
		Rules:      make([]Rule, 0, 2*len(spec.Storages)+len(spec.OutPorts)+base.Len()),
		ntIdx:      make(map[string]int, nNT),
		terms:      make(map[term]int32),
		StartRules: append(make([]int32, 0, nNT), -1),
		Spec:       spec,
		base:       base,
	}
	g.grow()

	// Nonterminals (SEQ ∪ PORTS), each with its start rule, cost 0.
	addStart := func(name string) {
		nt, ok := g.ntIdx[name]
		if !ok {
			nt = len(g.NTNames)
			g.NTNames = append(g.NTNames, name)
			g.StartRules = append(g.StartRules, -1)
			g.ntIdx[name] = nt
		}
		g.StartRules[nt] = int32(len(g.Rules))
		g.Rules = append(g.Rules, Rule{Kind: KindStart, LHS: START, Dest: int32(nt),
			Pat: rtl.NoExpr, Addr: rtl.NoExpr, Term: -1, Tmpl: -1})
		g.stats.StartRules++
	}
	for _, s := range spec.Storages {
		addStart(s.Name)
	}
	for _, p := range spec.OutPorts {
		addStart(p)
	}

	// RT rules, cost 1, one per entry of the base.  A pattern is its
	// template's source handle, lowered once however many rules share
	// it; a swap rule's is its swapped source, interned once per
	// (source, mask).  Destination addresses are numbered after the
	// terminals are counted: their terminals must match subject nodes
	// but are not terminals of the grammar's rules.
	//
	// The swap patterns built so far are chained per source handle:
	// first[h] is 1 + the index in swapped of the latest for source h.
	first := make([]int32, g.Exprs().Len())
	var swapped []swapPat
	var skipErr error
	skipped := 0
	dest, lhs, inSpec := "", 0, false // the latest destination looked up
	base.Each(func(s rtl.Swap) {
		t := s.Of
		if len(t.Cond.Dynamic) > 0 {
			// Templates with residual dynamic guards (conditional jumps,
			// flag-steered transfers) execute only under run-time
			// conditions and are not selectable as unconditional ET
			// covers.
			return
		}
		if t.Dest != dest {
			dest = t.Dest
			lhs, inSpec = g.ntIdx[dest]
		}
		if !inSpec {
			// Destination outside the spec (e.g. the PC of a machine whose
			// spec excludes it): skip rather than fail, the template simply
			// is not selectable.
			return
		}
		err := faultpoint.Hit("grammar.rule", t.Dest)
		if err == nil {
			err = g.lowerable(t.SrcID())
		}
		if err != nil {
			err = fmt.Errorf("template %d (%s): %w", s.ID, s, err)
			if skipErr == nil {
				skipErr = err
			}
			skipped++
			rep.Warnf("grammar", diag.Pos{}, "skipping %v; its RT stays unselectable", err)
			return
		}
		pat := t.SrcID()
		if s.Mask != 0 {
			j := first[pat]
			for j != 0 && swapped[j-1].mask != s.Mask {
				j = swapped[j-1].next
			}
			if j == 0 {
				// A swapped tree has the nodes of its source, so it
				// lowers too.
				h := swapTree(g.Exprs(), pat, s.Mask)
				g.grow()
				g.lowerable(h)
				swapped = append(swapped, swapPat{s.Mask, h, first[pat]})
				j = int32(len(swapped))
				first[pat] = j
			}
			pat = swapped[j-1].pat
		}
		g.number(pat)
		r := Rule{Kind: KindRT, LHS: int32(lhs), Cost: 1, Pat: pat, Addr: t.AddrID(),
			Term: g.nodes[pat].term, Tmpl: int32(t.Index()), Swap: s.Mask}
		if g.nodes[pat].nt != 0 {
			g.stats.ChainRules++
		}
		g.Rules = append(g.Rules, r)
		g.stats.RTRules++
	})
	if skipped > 0 && g.stats.RTRules == 0 {
		return nil, fmt.Errorf("grammar: no selectable rules survive lowering: %w", skipErr)
	}

	// Stop rules, cost 0, for plain registers.
	for _, s := range spec.Storages {
		if s.Size != 1 {
			continue
		}
		g.Rules = append(g.Rules, Rule{Kind: KindStop, LHS: int32(g.ntIdx[s.Name]),
			Pat: rtl.NoExpr, Addr: rtl.NoExpr, Term: g.termID(term{kind: termReg, name: s.Name}), Tmpl: -1})
		g.stats.StopRules++
	}
	g.stats.Nonterminals = len(g.NTNames)
	g.stats.Terminals = len(g.terms) + 1 // + ASSIGN

	// Destination addresses.  One that does not lower leaves its rule
	// unselectable as a store.
	for i := range g.Rules {
		r := &g.Rules[i]
		if r.Addr == rtl.NoExpr {
			continue
		}
		if g.lowerable(r.Addr) != nil {
			r.Addr = rtl.NoExpr
			continue
		}
		g.number(r.Addr)
	}

	g.RulesByTerm = g.index(len(g.terms), func(r *Rule) int32 { return r.Term })
	g.ChainRules = g.index(len(g.NTNames), func(r *Rule) int32 {
		if !r.IsChain() {
			return -1
		}
		return g.nodes[r.Pat].nt
	})
	g.StoreRules = g.index(len(g.NTNames), func(r *Rule) int32 {
		if r.Addr == rtl.NoExpr {
			return -1
		}
		return r.LHS
	})
	return g, nil
}

// grow extends the per-handle arrays over every handle of the store.
func (g *Grammar) grow() {
	n := g.Exprs().Len()
	if n <= len(g.nodes) {
		return
	}
	old := len(g.nodes)
	g.nodes = slices.Grow(g.nodes, n-old)[:n]
	for i := old; i < n; i++ {
		g.nodes[i] = patNode{term: -1}
	}
}

// lowerable checks that the tree of handle h lowers into a pattern per
// table 2 of the paper, recording each address-less read's nonterminal.
// Only success is memoised; a failing tree is rare.
func (g *Grammar) lowerable(h rtl.ExprID) error {
	n := &g.nodes[h]
	if n.state != unseen {
		return nil
	}
	e := g.Exprs().Expr(h)
	switch e.Kind {
	case rtl.Const, rtl.InsnField, rtl.PortRef:
	case rtl.Read:
		if e.Addr() == nil {
			nt, ok := g.ntIdx[e.Storage]
			if !ok {
				return fmt.Errorf("grammar: storage %s not in spec", e.Storage)
			}
			n.nt = int32(nt)
		}
	case rtl.Slice, rtl.OpApp:
	default:
		return fmt.Errorf("grammar: cannot lower expression %s", e)
	}
	for _, k := range g.Exprs().Kids(h) {
		if err := g.lowerable(k); err != nil {
			return err
		}
	}
	n.state = lowerable
	return nil
}

// number gives every terminal node of h's tree, which lowers, its
// terminal ID.
func (g *Grammar) number(h rtl.ExprID) {
	n := &g.nodes[h]
	if n.state == numbered {
		return
	}
	n.state = numbered
	if n.nt != 0 {
		return
	}
	t, _ := subjectTerm(g.Exprs().Expr(h))
	n.term = g.termID(t)
	for _, k := range g.Exprs().Kids(h) {
		g.number(k)
	}
}

// termID returns t's terminal ID, numbering it if it is new.
func (g *Grammar) termID(t term) int32 {
	id, ok := g.terms[t]
	if !ok {
		id = int32(len(g.terms))
		g.terms[t] = id
	}
	return id
}

// index groups the indices of the rules by key (skipping those keyed -1)
// into n lists, in rule order, carved from one array.
func (g *Grammar) index(n int, key func(*Rule) int32) [][]int32 {
	at := make([]int32, n+1)
	for i := range g.Rules {
		if k := key(&g.Rules[i]); k >= 0 {
			at[k+1]++
		}
	}
	for k := 1; k <= n; k++ {
		at[k] += at[k-1]
	}
	all := make([]int32, at[n])
	lists := make([][]int32, n)
	for k := range lists {
		lists[k] = all[at[k]:at[k]:at[k+1]]
	}
	for i := range g.Rules {
		if k := key(&g.Rules[i]); k >= 0 {
			lists[k] = append(lists[k], int32(i))
		}
	}
	return lists
}

// swapPat is the pattern of a swap rule of some source: the handle of the
// source with the sites of mask swapped.  next is 1 + the index of the
// source's previous one, 0 for none.
type swapPat struct {
	mask uint64
	pat  rtl.ExprID
	next int32
}

// swapTree interns the tree of handle h with the operands of the swap
// sites that mask selects exchanged (bit i selects site i, in the
// pre-order of rtl.Expr.SwapSite) and returns its handle.  Subtrees
// holding no selected site keep their handles; only nodes above a
// selected site can be new.
func swapTree(s *rtl.Store, h rtl.ExprID, mask uint64) rtl.ExprID {
	if mask == 0 {
		return h
	}
	e := s.Expr(h)
	swap := false
	if e.SwapSite() {
		swap, mask = mask&1 != 0, mask>>1
	}
	var buf [2]rtl.ExprID
	kids := append(buf[:0], s.Kids(h)...)
	for i, k := range e.Kids {
		n := uint(k.SwapSites())
		kids[i] = swapTree(s, kids[i], mask&(1<<n-1))
		mask >>= n
	}
	if swap {
		kids[0], kids[1] = kids[1], kids[0]
	}
	return s.Node(*e, kids...)
}

// Stats summarizes the grammar for diagnostics and the retargeting report.
type Stats struct {
	Nonterminals int
	Terminals    int
	StartRules   int
	RTRules      int
	StopRules    int
	ChainRules   int
}

// Stats returns the summary counts Build took as it added rules.  The
// terminals are those of the rules' patterns plus ASSIGN; a template whose
// lowering failed contributes none, and neither do destination addresses.
func (g *Grammar) Stats() Stats { return g.stats }

// Observe records the grammar's size in the scope's registry — rule counts
// by kind and the nonterminal count — so `record -stats` and the recordd
// /metrics endpoint report grammar size from the same Stats as the
// retargeting report.  scope may be nil.
func (st Stats) Observe(scope *obs.Scope) {
	reg := scope.Registry()
	if reg == nil {
		return
	}
	rules := reg.CounterVec("record_grammar_rules_total",
		"tree-grammar rules constructed, by rule kind", "kind")
	rules.With("start").Add(st.StartRules)
	rules.With("rt").Add(st.RTRules)
	rules.With("stop").Add(st.StopRules)
	reg.Counter("record_grammar_nonterminals_total",
		"tree-grammar nonterminals constructed").Add(st.Nonterminals)
}

// String renders the grammar in a BNF-like form.
func (g *Grammar) String() string {
	var b strings.Builder
	for i := range g.Rules {
		r := &g.Rules[i]
		lhs := g.NTNames[r.LHS]
		switch r.Kind {
		case KindStart:
			fmt.Fprintf(&b, "%-8s -> ASSIGN(%s, %s)  [0]\n", lhs, g.Pattern(r), g.Pattern(r))
		default:
			fmt.Fprintf(&b, "%-8s -> %s  [%d]\n", lhs, g.Pattern(r), r.Cost)
		}
	}
	return b.String()
}

// Pattern renders the pattern of r with nonterminals by name.
func (g *Grammar) Pattern(r *Rule) string {
	switch r.Kind {
	case KindStart:
		return g.NTNames[r.Dest]
	case KindStop:
		return g.NTNames[r.LHS]
	}
	return g.patString(r.Pat)
}

// patString renders pattern handle h with nonterminals by name.
func (g *Grammar) patString(h rtl.ExprID) string {
	if nt := g.nodes[h].nt; nt != 0 {
		return g.NTNames[nt]
	}
	e, kids := g.Exprs().Expr(h), g.Exprs().Kids(h)
	switch e.Kind {
	case rtl.OpApp:
		if len(kids) == 1 {
			return fmt.Sprintf("%s(%s)", e.Op, g.patString(kids[0]))
		}
		return fmt.Sprintf("(%s %s %s)", g.patString(kids[0]), e.Op, g.patString(kids[1]))
	case rtl.Read:
		return fmt.Sprintf("%s[%s]", e.Storage, g.patString(kids[0]))
	case rtl.InsnField:
		return fmt.Sprintf("IMM[%d:%d]", e.Hi, e.Lo)
	case rtl.Const:
		return strconv.FormatInt(e.Val, 10)
	case rtl.PortRef:
		return e.Port
	case rtl.Slice:
		return fmt.Sprintf("%s[%d:%d]", g.patString(kids[0]), e.Hi, e.Lo)
	}
	return "?"
}
