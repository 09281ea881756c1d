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
// Patterns and subject trees share the rtl.Expr vocabulary; a pattern
// position is either a terminal node or a nonterminal placeholder.  The
// commutative swaps of the base (rtl.Swap) are resolved here: a swap's
// rule gets the lowered pattern of its swapped source, so the parser and
// the code selector match plain patterns and never read a swap mask.
package grammar

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/diag"
	"repro/internal/faultpoint"
	"repro/internal/obs"

	"repro/internal/netlist"
	"repro/internal/rtl"
)

// PatKind discriminates pattern node roles.
type PatKind int

// Pattern node kinds.
const (
	PatNT    PatKind = iota // nonterminal placeholder
	PatOp                   // hardware operator terminal
	PatReg                  // scalar storage terminal (stop-rule leaves)
	PatMem                  // addressable storage terminal; Kids[0] = address
	PatImm                  // instruction-field immediate terminal
	PatConst                // hardwired constant terminal
	PatPort                 // primary input port terminal
	PatSlice                // subword-select terminal; one kid
)

// Pat is a tree-grammar pattern node.
type Pat struct {
	Kind    PatKind
	NT      int    // PatNT: nonterminal index
	Op      rtl.Op // PatOp
	Width   int    // result width (all kinds)
	Storage string // PatReg / PatMem: qualified storage name
	ImmHi   int    // PatImm: instruction field bits
	ImmLo   int    // PatImm
	Val     int64  // PatConst
	Port    string // PatPort
	Hi      int    // PatSlice
	Lo      int
	Kids    []*Pat
}

// term identifies a terminal symbol: the part of a pattern node's root
// that the subject node at that position must agree with.  Immediates and
// hardwired constants share one terminal, since both match program
// constants; a subject node finds its terminal through the same key.
type term struct {
	kind  uint8  // a PatKind; PatImm is filed under PatConst
	width int32  // PatOp
	hi    int32  // PatSlice
	lo    int32  // PatSlice
	name  string // operator, storage or port
}

// termOf returns the terminal of pattern node p; ok is false for a
// nonterminal.
func termOf(p *Pat) (term, bool) {
	switch p.Kind {
	case PatOp:
		return term{kind: uint8(PatOp), width: int32(p.Width), name: string(p.Op)}, true
	case PatReg, PatMem:
		return term{kind: uint8(p.Kind), name: p.Storage}, true
	case PatImm, PatConst:
		return term{kind: uint8(PatConst)}, true
	case PatPort:
		return term{kind: uint8(PatPort), name: p.Port}, true
	case PatSlice:
		return term{kind: uint8(PatSlice), hi: int32(p.Hi), lo: int32(p.Lo)}, true
	}
	return term{}, false
}

// subjectTerm returns the terminal a subject tree node falls under; ok is
// false for a node no pattern can match at its root.
func subjectTerm(e *rtl.Expr) (term, bool) {
	switch e.Kind {
	case rtl.OpApp:
		return term{kind: uint8(PatOp), width: int32(e.Width), name: string(e.Op)}, true
	case rtl.Read:
		if e.Addr() != nil {
			return term{kind: uint8(PatMem), name: e.Storage}, true
		}
		return term{kind: uint8(PatReg), name: e.Storage}, true
	case rtl.Const, rtl.InsnField:
		// Fields in subject trees behave like immediates.
		return term{kind: uint8(PatConst)}, true
	case rtl.PortRef:
		return term{kind: uint8(PatPort), name: e.Port}, true
	case rtl.Slice:
		return term{kind: uint8(PatSlice), hi: int32(e.Hi), lo: int32(e.Lo)}, true
	}
	return term{}, false
}

// MatchesLeaf reports whether terminal pattern p matches subject node e at
// this level (kids are matched by the parser).
func (p *Pat) MatchesLeaf(e *rtl.Expr) bool {
	switch p.Kind {
	case PatOp:
		return e.Kind == rtl.OpApp && e.Op == p.Op && e.Width == p.Width &&
			len(e.Kids) == len(p.Kids)
	case PatReg:
		return e.Kind == rtl.Read && e.Addr() == nil && e.Storage == p.Storage
	case PatMem:
		return e.Kind == rtl.Read && e.Addr() != nil && e.Storage == p.Storage
	case PatImm:
		return e.Kind == rtl.Const && fitsField(e.Val, p.ImmHi-p.ImmLo+1)
	case PatConst:
		// Hardwired constants match by value; the surrounding operator
		// node already checks widths, and literal widths are inference
		// artifacts (a shift amount infers at minimal width).
		return e.Kind == rtl.Const && e.Val == p.Val
	case PatPort:
		return e.Kind == rtl.PortRef && e.Port == p.Port
	case PatSlice:
		return e.Kind == rtl.Slice && e.Hi == p.Hi && e.Lo == p.Lo
	}
	return false
}

// fitsField reports whether v can be encoded in a w-bit instruction field
// (unsigned or two's-complement signed).
func fitsField(v int64, w int) bool {
	if w >= 64 {
		return true
	}
	if v >= 0 {
		return v < 1<<uint(w)
	}
	return v >= -(1 << uint(w-1))
}

func (p *Pat) String() string {
	switch p.Kind {
	case PatNT:
		return fmt.Sprintf("<%d>", p.NT)
	case PatOp:
		if len(p.Kids) == 1 {
			return fmt.Sprintf("%s(%s)", p.Op, p.Kids[0])
		}
		return fmt.Sprintf("(%s %s %s)", p.Kids[0], p.Op, p.Kids[1])
	case PatReg:
		return p.Storage
	case PatMem:
		return fmt.Sprintf("%s[%s]", p.Storage, p.Kids[0])
	case PatImm:
		return fmt.Sprintf("IMM[%d:%d]", p.ImmHi, p.ImmLo)
	case PatConst:
		return fmt.Sprintf("%d", p.Val)
	case PatPort:
		return p.Port
	case PatSlice:
		return fmt.Sprintf("%s[%d:%d]", p.Kids[0], p.Hi, p.Lo)
	}
	return "?"
}

// RuleKind classifies rules per the paper's three groups.
type RuleKind int

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

// Rule is one grammar rule "LHS → Pattern" with cost and provenance.
type Rule struct {
	ID       int
	Kind     RuleKind
	LHS      int // nonterminal index (START for start rules)
	Pat      *Pat
	Cost     int
	Template *rtl.Template // KindRT: the originating template
	Dest     string        // KindStart: the destination this rule targets
	// AddrPat is the lowered destination-address pattern of a KindRT
	// rule, nil when Template has no destination address or it cannot
	// be lowered.
	AddrPat *Pat
	// Term is the terminal ID of the pattern's root, the RulesByTerm
	// bucket the rule is filed in; -1 for start and chain rules.
	Term int
	// Swap is the mask of a KindRT rule for a swap entry of the base
	// (rtl.Swap), kept for the listing: Pat is already the swapped
	// pattern.
	Swap uint64
}

// IsChain reports whether the rule's pattern is a bare nonterminal (a chain
// rule for the dynamic-programming closure).
func (r *Rule) IsChain() bool { return r.Pat.Kind == PatNT }

func (r *Rule) String() string {
	return fmt.Sprintf("#%d %s: <%d> -> %s (cost %d)", r.ID, r.Kind, r.LHS, r.Pat, r.Cost)
}

// Grammar is the constructed tree grammar.
type Grammar struct {
	// NTNames[i] names nonterminal i; index 0 is START.
	NTNames []string
	ntIdx   map[string]int

	Rules []*Rule
	// RulesByTerm indexes non-chain RT and stop rules by the terminal ID
	// of their pattern's root (see SubjectTerm).
	RulesByTerm [][]*Rule
	// terms numbers the terminals of the rules' patterns.
	terms map[term]int
	// ChainRules[src] lists chain rules deriving from nonterminal src.
	ChainRules map[int][]*Rule
	// StartRules maps destination name to its start rule.
	StartRules map[string]*Rule

	// StorageWidths/Sizes echo the machine spec for clients.
	Spec Spec

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

// SubjectTerm returns the terminal ID of subject node e, the RulesByTerm
// bucket holding every rule whose root can match e, or -1 when no rule's
// can.
func (g *Grammar) SubjectTerm(e *rtl.Expr) int {
	if t, ok := subjectTerm(e); ok {
		if id, ok := g.terms[t]; ok {
			return id
		}
	}
	return -1
}

// internTerms numbers every terminal of pattern p.
func (g *Grammar) internTerms(p *Pat) {
	if t, ok := termOf(p); ok {
		if _, ok := g.terms[t]; !ok {
			g.terms[t] = len(g.terms)
		}
	}
	for _, k := range p.Kids {
		g.internTerms(k)
	}
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
func BuildReported(base *rtl.Base, spec Spec, rep *diag.Reporter) (*Grammar, error) {
	g := &Grammar{
		// At most a start and a stop rule per storage, a start rule per
		// port and an RT rule per entry of the base.
		Rules:      make([]*Rule, 0, 2*len(spec.Storages)+len(spec.OutPorts)+base.Len()),
		ntIdx:      make(map[string]int),
		terms:      make(map[term]int),
		ChainRules: make(map[int][]*Rule),
		StartRules: make(map[string]*Rule),
		Spec:       spec,
	}
	g.NTNames = append(g.NTNames, "START")

	addNT := func(name string) int {
		if i, ok := g.ntIdx[name]; ok {
			return i
		}
		i := len(g.NTNames)
		g.NTNames = append(g.NTNames, name)
		g.ntIdx[name] = i
		return i
	}

	// Nonterminals: SEQ ∪ PORTS.
	for _, s := range spec.Storages {
		addNT(s.Name)
	}
	for _, p := range spec.OutPorts {
		addNT(p)
	}

	// addRule files r; the terminals of its pattern must be interned.
	addRule := func(r *Rule) {
		r.ID = len(g.Rules)
		r.Term = -1
		g.Rules = append(g.Rules, r)
		switch {
		case r.Kind == KindStart:
			g.StartRules[r.Dest] = r
			g.stats.StartRules++
			return
		case r.IsChain():
			g.ChainRules[r.Pat.NT] = append(g.ChainRules[r.Pat.NT], r)
			g.stats.ChainRules++
		default:
			t, _ := termOf(r.Pat)
			r.Term = g.terms[t]
		}
		if r.Kind == KindRT {
			g.stats.RTRules++
		} else {
			g.stats.StopRules++
		}
	}

	// 1. Start rules, cost 0.
	for _, s := range spec.Storages {
		addRule(&Rule{Kind: KindStart, LHS: START, Dest: s.Name, Cost: 0,
			Pat: &Pat{Kind: PatNT, NT: g.ntIdx[s.Name], Width: s.Width}})
	}
	for _, p := range spec.OutPorts {
		addRule(&Rule{Kind: KindStart, LHS: START, Dest: p, Cost: 0,
			Pat: &Pat{Kind: PatNT, NT: g.ntIdx[p], Width: 0}})
	}

	// 2. RT rules, cost 1, one per entry of the base.  A pattern depends
	// on its template's source alone, so each distinct source is lowered
	// once and its pattern is shared, read-only, by every rule for it.  A
	// swap rule gets that pattern with the operands of its masked sites
	// exchanged, built once per (source, mask); it shares every subtree
	// without a masked site with the source's pattern.  Each distinct
	// destination address is lowered once too.  A failed source lowering
	// is rare and not memoised.  The rules are carved from one array.
	lowered := make([]*Pat, base.Exprs().Len())
	swapped := make(map[swapKey]*Pat)
	addrs := make(map[rtl.ExprID]*Pat)
	rules := make([]Rule, 0, base.Len())
	var skipErr error
	skipped := 0
	base.Each(func(s rtl.Swap) {
		t := s.Of
		if len(t.Cond.Dynamic) > 0 {
			// Templates with residual dynamic guards (conditional jumps,
			// flag-steered transfers) execute only under run-time
			// conditions and are not selectable as unconditional ET
			// covers.
			return
		}
		lhs, ok := g.ntIdx[t.Dest]
		if !ok {
			// Destination outside the spec (e.g. the PC of a machine whose
			// spec excludes it): skip rather than fail, the template simply
			// is not selectable.
			return
		}
		var pat *Pat
		err := faultpoint.Hit("grammar.rule", t.Dest)
		if err == nil {
			if pat = lowered[t.SrcID()]; pat == nil {
				if pat, err = g.lower(t.Src); err == nil {
					g.internTerms(pat)
					lowered[t.SrcID()] = pat
				}
			}
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
		if s.Mask != 0 {
			key := swapKey{t.SrcID(), s.Mask}
			if swapped[key] == nil {
				swapped[key] = swapPat(t.Src, pat, s.Mask)
			}
			pat = swapped[key]
		}
		var addr *Pat
		if t.DestAddr != nil {
			if addr, ok = addrs[t.AddrID()]; !ok {
				// An address that does not lower leaves the rule
				// unselectable as a store.
				addr, _ = g.lower(t.DestAddr)
				addrs[t.AddrID()] = addr
			}
		}
		rules = append(rules, Rule{Kind: KindRT, LHS: lhs, Pat: pat, AddrPat: addr, Cost: 1, Template: t, Swap: s.Mask})
		addRule(&rules[len(rules)-1])
	})
	if skipped > 0 && g.stats.RTRules == 0 {
		return nil, fmt.Errorf("grammar: no selectable rules survive lowering: %w", skipErr)
	}

	// 3. Stop rules, cost 0, for plain registers.
	for _, s := range spec.Storages {
		if s.Size != 1 {
			continue
		}
		pat := &Pat{Kind: PatReg, Storage: s.Name, Width: s.Width}
		g.internTerms(pat)
		addRule(&Rule{Kind: KindStop, LHS: g.ntIdx[s.Name], Cost: 0, Pat: pat})
	}
	// Every terminal gets a bucket, empty if it roots no rule.
	g.RulesByTerm = make([][]*Rule, len(g.terms))
	for _, r := range g.Rules {
		if r.Term >= 0 {
			g.RulesByTerm[r.Term] = append(g.RulesByTerm[r.Term], r)
		}
	}
	g.stats.Nonterminals = len(g.NTNames)
	g.stats.Terminals = len(g.terms) + 1 // + ASSIGN
	return g, nil
}

// lower converts a template source expression into a pattern per table 2 of
// the paper.
func (g *Grammar) lower(e *rtl.Expr) (*Pat, error) {
	p := &Pat{Width: e.Width}
	switch e.Kind {
	case rtl.Const:
		p.Kind, p.Val = PatConst, e.Val
	case rtl.InsnField:
		p.Kind, p.ImmHi, p.ImmLo = PatImm, e.Hi, e.Lo
	case rtl.PortRef:
		p.Kind, p.Port = PatPort, e.Port
	case rtl.Read:
		if e.Addr() == nil {
			nt, ok := g.ntIdx[e.Storage]
			if !ok {
				return nil, fmt.Errorf("grammar: storage %s not in spec", e.Storage)
			}
			p.Kind, p.NT = PatNT, nt
			break
		}
		p.Kind, p.Storage = PatMem, e.Storage
	case rtl.Slice:
		p.Kind, p.Hi, p.Lo = PatSlice, e.Hi, e.Lo
	case rtl.OpApp:
		p.Kind, p.Op = PatOp, e.Op
	default:
		return nil, fmt.Errorf("grammar: cannot lower expression %s", e)
	}
	if len(e.Kids) > 0 {
		p.Kids = make([]*Pat, len(e.Kids))
		for i, k := range e.Kids {
			kid, err := g.lower(k)
			if err != nil {
				return nil, err
			}
			p.Kids[i] = kid
		}
	}
	return p, nil
}

// swapKey identifies a swap rule's pattern: its source and mask.
type swapKey struct {
	src  rtl.ExprID
	mask uint64
}

// swapPat returns p, the lowering of e, with the operands of the swap
// sites of e that mask selects exchanged (bit i selects site i, in the
// pre-order of rtl.Expr.SwapSite).  Subtrees holding no selected site are
// p's own.
func swapPat(e *rtl.Expr, p *Pat, mask uint64) *Pat {
	if mask == 0 {
		return p
	}
	swap := false
	if e.SwapSite() {
		swap, mask = mask&1 != 0, mask>>1
	}
	q := *p
	q.Kids = make([]*Pat, len(p.Kids))
	for i, k := range e.Kids {
		n := uint(k.SwapSites())
		q.Kids[i] = swapPat(k, p.Kids[i], mask&(1<<n-1))
		mask >>= n
	}
	if swap {
		q.Kids[0], q.Kids[1] = q.Kids[1], q.Kids[0]
	}
	return &q
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
// lowering failed contributes none.
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
	for _, r := range g.Rules {
		lhs := g.NTNames[r.LHS]
		switch r.Kind {
		case KindStart:
			fmt.Fprintf(&b, "%-8s -> ASSIGN(%s, %s)  [0]\n", lhs, r.Dest, g.patString(r.Pat))
		default:
			fmt.Fprintf(&b, "%-8s -> %s  [%d]\n", lhs, g.patString(r.Pat), r.Cost)
		}
	}
	return b.String()
}

// patString renders p with nonterminals by name.
func (g *Grammar) patString(p *Pat) string {
	if p.Kind == PatNT {
		return g.NTNames[p.NT]
	}
	if len(p.Kids) == 0 {
		return p.String()
	}
	parts := make([]string, len(p.Kids))
	for i, k := range p.Kids {
		parts[i] = g.patString(k)
	}
	switch p.Kind {
	case PatOp:
		if len(parts) == 1 {
			return fmt.Sprintf("%s(%s)", p.Op, parts[0])
		}
		return fmt.Sprintf("(%s %s %s)", parts[0], p.Op, parts[1])
	case PatMem:
		return fmt.Sprintf("%s[%s]", p.Storage, parts[0])
	case PatSlice:
		return fmt.Sprintf("%s[%d:%d]", parts[0], p.Hi, p.Lo)
	}
	return p.String()
}
