// Package burs implements a bottom-up rewrite system (BURS) tree parser —
// the equivalent of the iburg code-generator generator the paper plugs its
// tree grammars into (Fraser/Hanson/Proebsting, LOPLAS 1992; paper section
// 3.2).
//
// Given the tree grammar built by internal/grammar, the parser labels a
// subject expression tree bottom-up with the minimum derivation cost per
// nonterminal, applying chain-rule closure at every node, and then emits
// the optimal (minimum-cost) derivation top-down.  Optimal code selection
// for an expression tree — covering it by a minimum set of RT templates —
// is exactly a minimum-cost derivation of the tree in the grammar.
// Patterns are handles into the template base's expression store: the
// grammar gives every commutative swap a rule with its own swapped
// pattern, so matching and derivation walk every pattern kid by kid, and
// a pattern node matches a subject node at its level when their terminal
// IDs agree (plus a field-fit or value check for constants).
//
// iburg emits C source compiled into the retargeted compiler; EmitGo
// mirrors that step by generating a Go source rendering of the rule tables.
package burs

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/code"
	"repro/internal/grammar"
	"repro/internal/rtl"
	"repro/internal/slab"
)

// Inf is the cost of an impossible derivation.
const Inf = math.MaxInt32 / 4

// Parser is a processor-specific tree parser generated from a grammar.
type Parser struct {
	G *grammar.Grammar
}

// NewParser constructs the parser for grammar g.
func NewParser(g *grammar.Grammar) *Parser { return &Parser{G: g} }

// unlabelled marks a handle's terminal ID before Label reaches it.
const unlabelled = -2

// Labels holds the dynamic-programming labels of the subject trees in one
// expression store, one row per handle: a label depends only on the
// subtree, and the store gives equal subtrees one handle, so each distinct
// subtree of a program is labelled once however often it occurs.  Labels
// also owns the derivation steps built from its rows, carved from a slab.
// A Labels is not safe for concurrent use.
type Labels struct {
	p   *Parser
	s   *rtl.Store
	nNT int
	// term[h] is handle h's terminal ID (grammar.Grammar.SubjectTerm), or
	// unlabelled.  cost[h*nNT+nt] is the minimal derivation cost of h's
	// tree from nonterminal nt; rule[h*nNT+nt], an index into the
	// grammar's Rules or -1, achieves it.
	term, cost, rule []int32
	// fields are the bindings of one rule probe; stack collects the kid
	// steps of the derivations in progress.
	fields   []code.Field
	stack    []*Step
	steps    slab.Slab[Step]
	stepKids slab.Slab[*Step]
	// labelled counts the handles labelled since Reset.
	labelled int
}

// NewLabels returns empty labels over the subject store s.
func (p *Parser) NewLabels(s *rtl.Store) *Labels {
	return &Labels{p: p, s: s, nNT: p.G.NumNT()}
}

// Reset forgets every label and releases every step, keeping the arrays
// for reuse; s is the store the labels index from now on (the old one,
// after its own Reset, or another).
func (l *Labels) Reset(s *rtl.Store) {
	l.s, l.term, l.labelled = s, l.term[:0], 0
	l.ResetSteps()
}

// ResetSteps releases every derivation step handed out so far.
func (l *Labels) ResetSteps() {
	l.steps.Reset()
	l.stepKids.Reset()
}

// Cost returns the minimal cost of deriving h's tree from nonterminal nt
// (Inf if impossible); Label must have reached h.
func (l *Labels) Cost(h rtl.ExprID, nt int) int { return int(l.cost[int(h)*l.nNT+nt]) }

// Rule returns the index in the grammar's Rules of the rule achieving
// Cost(h, nt), or -1.
func (l *Labels) Rule(h rtl.ExprID, nt int) int { return int(l.rule[int(h)*l.nNT+nt]) }

// Label labels h's tree bottom-up: every handle in it not labelled yet.
func (l *Labels) Label(h rtl.ExprID) {
	if n := l.s.Len(); len(l.term) < n {
		l.term = slices.Grow(l.term, n-len(l.term))
		for len(l.term) < n {
			l.term = append(l.term, unlabelled)
		}
		if rows := n * l.nNT; len(l.cost) < rows {
			l.cost = slices.Grow(l.cost, rows-len(l.cost))[:rows]
			l.rule = slices.Grow(l.rule, rows-len(l.rule))[:rows]
		}
	}
	l.label(h)
}

// label labels h after its kids, unless it is labelled already.
func (l *Labels) label(h rtl.ExprID) {
	if l.term[h] != unlabelled {
		return
	}
	for _, k := range l.s.Kids(h) {
		l.label(k)
	}
	g := l.p.G
	l.labelled++
	term := g.SubjectTerm(l.s, h)
	l.term[h] = term
	row := int(h) * l.nNT
	cost, rule := l.cost[row:row+l.nNT:row+l.nNT], l.rule[row:row+l.nNT:row+l.nNT]
	for i := range cost {
		cost[i], rule[i] = Inf, -1
	}
	// Match every rule whose root terminal is this node's.
	var rules []int32
	if term >= 0 {
		rules = g.RulesByTerm[term]
	}
	for _, ri := range rules {
		r := &g.Rules[ri]
		var c int32
		if r.Pat != rtl.NoExpr { // a stop rule's pattern is its terminal alone
			if c, l.fields = l.MatchCostFields(r.Pat, h, l.fields[:0]); c >= Inf {
				continue
			}
		}
		total := r.Cost + c
		if total < cost[r.LHS] {
			cost[r.LHS] = total
			rule[r.LHS] = ri
		}
	}
	// Chain-rule closure to fixpoint, in ascending source-nonterminal
	// order: on a cost tie the first rule processed wins.
	for changed := true; changed; {
		changed = false
		for src, rules := range g.ChainRules {
			if cost[src] >= Inf {
				continue
			}
			for _, ri := range rules {
				r := &g.Rules[ri]
				total := r.Cost + cost[src]
				if total < cost[r.LHS] {
					cost[r.LHS] = total
					rule[r.LHS] = ri
					changed = true
				}
			}
		}
	}
}

// MatchCostFields returns the cost of matching the pattern of handle pat
// at subject handle h (excluding the rule's own cost), or Inf, and fields
// with the operand fields the match binds added; Label must have reached
// h.  fields is kept sorted by (Lo, Hi) and holds each bit range once.
// Nonlinear patterns — where one instruction field appears at several
// leaves (both FU inputs wired to the same memory output, say) — only
// match when every occurrence binds the same operand value.  Passing one
// pattern's result on to the next (a template's source and
// destination-address patterns) enforces consistency across both.
func (l *Labels) MatchCostFields(pat, h rtl.ExprID, fields []code.Field) (int32, []code.Field) {
	g := l.p.G
	if nt := g.PatNT(pat); nt != 0 {
		return l.cost[int(h)*l.nNT+nt], fields
	}
	if g.PatTerm(pat) != l.term[h] {
		return Inf, fields
	}
	kids := g.Exprs().Kids(pat)
	if len(kids) == 0 {
		// Immediates and hardwired constants share a terminal with
		// every subject constant; a subject instruction field matches
		// neither.
		switch e, s := g.Exprs().Expr(pat), l.s.Expr(h); e.Kind {
		case rtl.InsnField:
			if s.Kind != rtl.Const || !grammar.FitsField(s.Val, e.Hi-e.Lo+1) {
				return Inf, fields
			}
			f := code.Field{Hi: e.Hi, Lo: e.Lo, Val: s.Val}
			i, found := slices.BinarySearchFunc(fields, f, func(a, b code.Field) int {
				return cmp.Or(cmp.Compare(a.Lo, b.Lo), cmp.Compare(a.Hi, b.Hi))
			})
			if !found {
				return 0, slices.Insert(fields, i, f)
			}
			if fields[i].Val != f.Val {
				return Inf, fields
			}
		case rtl.Const:
			// Hardwired constants match by value; the surrounding
			// operator node already checks widths, and literal widths
			// are inference artifacts (a shift amount infers at
			// minimal width).
			if s.Kind != rtl.Const || s.Val != e.Val {
				return Inf, fields
			}
		}
		return 0, fields
	}
	skids := l.s.Kids(h)
	if len(kids) != len(skids) {
		return Inf, fields
	}
	var sum int32
	for i, kid := range skids {
		var c int32
		if c, fields = l.MatchCostFields(kids[i], kid, fields); c >= Inf {
			return Inf, fields
		}
		sum += c
	}
	return sum, fields
}

// Step is one rule application in a derivation, at subject handle Expr.
// Kids are the sub-derivations at the nonterminal positions of the rule's
// pattern, in pre-order.
type Step struct {
	Rule *grammar.Rule
	Expr rtl.ExprID
	Kids []*Step
}

// Walk visits the derivation bottom-up (kids before parent).
func (s *Step) Walk(f func(*Step)) {
	for _, k := range s.Kids {
		k.Walk(f)
	}
	f(s)
}

// Templates returns the RT templates selected by the derivation in
// bottom-up (operand-first) order; g is the grammar of its rules.
func (s *Step) Templates(g *grammar.Grammar) []*rtl.Template {
	var out []*rtl.Template
	s.Walk(func(st *Step) {
		if st.Rule.Kind == grammar.KindRT {
			out = append(out, g.Template(st.Rule))
		}
	})
	return out
}

// Cover is an optimal covering of one expression tree for one destination.
type Cover struct {
	Dest  string
	Start *grammar.Rule
	Root  *Step
	Cost  int
}

// CoverError explains an uncoverable tree.
type CoverError struct {
	Dest string
	Expr string // the tree's rendering
	// Derivable lists the nonterminals the tree can be derived from, to
	// help diagnose the gap.
	Derivable []string
}

func (e *CoverError) Error() string {
	if len(e.Derivable) == 0 {
		return fmt.Sprintf("burs: expression %s not derivable from any nonterminal (operator unsupported by the target?)", e.Expr)
	}
	return fmt.Sprintf("burs: expression %s not derivable into destination %s (only into %s)",
		e.Expr, e.Dest, strings.Join(e.Derivable, ", "))
}

// Cover computes the minimum-cost derivation of subject handle h, which
// Label has reached, into destination dest (the paper's
// ASSIGN(Term(dest), NonTerm(dest)) start rule).
func (l *Labels) Cover(dest string, h rtl.ExprID) (*Cover, error) {
	g := l.p.G
	nt := g.NT(dest)
	if nt <= 0 || g.StartRules[nt] < 0 {
		return nil, fmt.Errorf("burs: unknown destination %q", dest)
	}
	sr := &g.Rules[g.StartRules[nt]]
	if l.Cost(h, nt) >= Inf {
		var derivable []string
		for i := 1; i < g.NumNT(); i++ {
			if l.Cost(h, i) < Inf {
				derivable = append(derivable, g.NTNames[i])
			}
		}
		slices.Sort(derivable)
		// The error may outlive the store, which its caller resets.
		return nil, &CoverError{Dest: dest, Expr: l.s.String(h), Derivable: derivable}
	}
	step, err := l.Derive(h, nt)
	if err != nil {
		return nil, err
	}
	return &Cover{Dest: dest, Start: sr, Root: step, Cost: l.Cost(h, nt) + int(sr.Cost)}, nil
}

// Derive reconstructs the optimal derivation of h's tree from nonterminal
// nt; Label must have reached h.  The steps stay valid until ResetSteps.
func (l *Labels) Derive(h rtl.ExprID, nt int) (*Step, error) {
	ri := l.Rule(h, nt)
	if ri < 0 {
		return nil, fmt.Errorf("burs: internal: no rule for %s at %s",
			l.p.G.NTNames[nt], l.s.String(h))
	}
	return l.DeriveRule(&l.p.G.Rules[ri], h, rtl.NoExpr)
}

// DeriveRule is the step applying rule r at h whose kids are the optimal
// derivations of the subject trees at the pattern's nonterminal
// positions: those of r's address pattern at addr first (when addr is not
// rtl.NoExpr), then those of its source pattern at h.  The patterns must
// match, and Label must have reached both handles.
func (l *Labels) DeriveRule(r *grammar.Rule, h, addr rtl.ExprID) (*Step, error) {
	mark := len(l.stack)
	defer func() { l.stack = l.stack[:mark] }()
	if addr != rtl.NoExpr {
		if err := l.deriveKids(r.Addr, addr); err != nil {
			return nil, err
		}
	}
	if r.Pat != rtl.NoExpr {
		if err := l.deriveKids(r.Pat, h); err != nil {
			return nil, err
		}
	}
	st := l.steps.New()
	*st = Step{Rule: r, Expr: h}
	if n := len(l.stack) - mark; n > 0 {
		st.Kids = l.stepKids.Make(n)
		copy(st.Kids, l.stack[mark:])
	}
	return st, nil
}

// deriveKids pushes onto the stack the optimal derivations of the subject
// trees at the nonterminal positions of the pattern of handle pat, in
// pre-order; the pattern must match h.
func (l *Labels) deriveKids(pat, h rtl.ExprID) error {
	if nt := l.p.G.PatNT(pat); nt != 0 {
		kid, err := l.Derive(h, nt)
		if err != nil {
			return err
		}
		l.stack = append(l.stack, kid)
		return nil
	}
	skids := l.s.Kids(h)
	for i, k := range l.p.G.Exprs().Kids(pat) {
		if err := l.deriveKids(k, skids[i]); err != nil {
			return err
		}
	}
	return nil
}
