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
)

// Inf is the cost of an impossible derivation.
const Inf = math.MaxInt32 / 4

// Node is a labelled subject-tree node.
type Node struct {
	Expr *rtl.Expr
	Kids []*Node
	// term is Expr's terminal ID (grammar.Grammar.SubjectTerm).
	term int32
	// cost[nt] is the minimal derivation cost of this subtree from
	// nonterminal nt; rule[nt], an index into the grammar's Rules or -1,
	// achieves it.
	cost []int32
	rule []int32
}

// Cost returns the minimal cost of deriving the subtree from nonterminal
// nt (Inf if impossible).
func (n *Node) Cost(nt int) int { return int(n.cost[nt]) }

// Rule returns the index in the grammar's Rules of the rule achieving
// Cost(nt), or -1.
func (n *Node) Rule(nt int) int { return int(n.rule[nt]) }

// Parser is a processor-specific tree parser generated from a grammar.
type Parser struct {
	G *grammar.Grammar
}

// NewParser constructs the parser for grammar g.
func NewParser(g *grammar.Grammar) *Parser { return &Parser{G: g} }

// Label computes the dynamic-programming labels for the subject tree.
// Every node's labels live in arrays shared by the whole tree.
func (p *Parser) Label(e *rtl.Expr) *Node {
	size, nNT := e.Size(), p.G.NumNT()
	l := &labeler{
		nodes: make([]Node, size),
		kids:  make([]*Node, size-1),
		cost:  make([]int32, size*nNT),
		rule:  make([]int32, size*nNT),
	}
	for i := range l.cost {
		l.cost[i], l.rule[i] = Inf, -1
	}
	return p.label(e, l)
}

// labeler holds one Label call's scratch: the field bindings, emptied
// before each rule probe, and the unclaimed rest of the arrays the nodes
// and their labels are carved from.
type labeler struct {
	fields []code.Field
	nodes  []Node
	kids   []*Node
	cost   []int32
	rule   []int32
}

// label labels e bottom-up.
func (p *Parser) label(e *rtl.Expr, l *labeler) *Node {
	g := p.G
	nNT, nKids := g.NumNT(), len(e.Kids)
	node := &l.nodes[0]
	*node = Node{Expr: e, Kids: l.kids[:nKids:nKids], term: g.SubjectTerm(e), cost: l.cost[:nNT:nNT], rule: l.rule[:nNT:nNT]}
	l.nodes, l.kids, l.cost, l.rule = l.nodes[1:], l.kids[nKids:], l.cost[nNT:], l.rule[nNT:]
	for i, k := range e.Kids {
		node.Kids[i] = p.label(k, l)
	}
	// Match every rule whose root terminal is this node's.
	var rules []int32
	if node.term >= 0 {
		rules = g.RulesByTerm[node.term]
	}
	for _, ri := range rules {
		r := &g.Rules[ri]
		var c int32
		if r.Pat != rtl.NoExpr { // a stop rule's pattern is its terminal alone
			if c, l.fields = p.MatchCostFields(r.Pat, node, l.fields[:0]); c >= Inf {
				continue
			}
		}
		total := r.Cost + c
		if total < node.cost[r.LHS] {
			node.cost[r.LHS] = total
			node.rule[r.LHS] = ri
		}
	}
	// Chain-rule closure to fixpoint, in ascending source-nonterminal
	// order: on a cost tie the first rule processed wins.
	for changed := true; changed; {
		changed = false
		for src, rules := range g.ChainRules {
			if node.cost[src] >= Inf {
				continue
			}
			for _, ri := range rules {
				r := &g.Rules[ri]
				total := r.Cost + node.cost[src]
				if total < node.cost[r.LHS] {
					node.cost[r.LHS] = total
					node.rule[r.LHS] = ri
					changed = true
				}
			}
		}
	}
	return node
}

// MatchCostFields returns the cost of matching the pattern of handle pat
// at node (excluding the rule's own cost), or Inf, and fields with the
// operand fields the match binds added.  fields is kept sorted by (Lo, Hi) and
// holds each bit range once.  Nonlinear patterns — where one instruction
// field appears at several leaves (both FU inputs wired to the same memory
// output, say) — only match when every occurrence binds the same operand
// value.  Passing one pattern's result on to the next (a template's source
// and destination-address patterns) enforces consistency across both.
func (p *Parser) MatchCostFields(pat rtl.ExprID, node *Node, fields []code.Field) (int32, []code.Field) {
	if nt := p.G.PatNT(pat); nt != 0 {
		return node.cost[nt], fields
	}
	if p.G.PatTerm(pat) != node.term {
		return Inf, fields
	}
	kids := p.G.Exprs().Kids(pat)
	if len(kids) == 0 {
		// Immediates and hardwired constants share a terminal with
		// every subject constant; a subject instruction field matches
		// neither.
		switch e, s := p.G.Exprs().Expr(pat), node.Expr; e.Kind {
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
	if len(kids) != len(node.Kids) {
		return Inf, fields
	}
	var sum int32
	for i, kid := range node.Kids {
		var c int32
		if c, fields = p.MatchCostFields(kids[i], kid, fields); c >= Inf {
			return Inf, fields
		}
		sum += c
	}
	return sum, fields
}

// Step is one rule application in a derivation.  Kids are the
// sub-derivations at the nonterminal positions of the rule's pattern, in
// pre-order.
type Step struct {
	Rule *grammar.Rule
	Node *Node
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
	Expr *rtl.Expr
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

// Cover computes the minimum-cost derivation of e into destination dest
// (the paper's ASSIGN(Term(dest), NonTerm(dest)) start rule).
func (p *Parser) Cover(dest string, e *rtl.Expr) (*Cover, error) {
	root := p.Label(e)
	return p.CoverLabeled(dest, root)
}

// CoverLabeled is Cover for an already-labelled tree.
func (p *Parser) CoverLabeled(dest string, root *Node) (*Cover, error) {
	nt := p.G.NT(dest)
	if nt <= 0 || p.G.StartRules[nt] < 0 {
		return nil, fmt.Errorf("burs: unknown destination %q", dest)
	}
	sr := &p.G.Rules[p.G.StartRules[nt]]
	if root.cost[nt] >= Inf {
		var derivable []string
		for i := 1; i < p.G.NumNT(); i++ {
			if root.cost[i] < Inf {
				derivable = append(derivable, p.G.NTNames[i])
			}
		}
		slices.Sort(derivable)
		return nil, &CoverError{Dest: dest, Expr: root.Expr, Derivable: derivable}
	}
	step, err := p.Derive(root, nt)
	if err != nil {
		return nil, err
	}
	return &Cover{Dest: dest, Start: sr, Root: step, Cost: int(root.cost[nt] + sr.Cost)}, nil
}

// Derive reconstructs the optimal derivation of node from nonterminal nt
// (Label must have produced the node).
func (p *Parser) Derive(node *Node, nt int) (*Step, error) {
	ri := node.rule[nt]
	if ri < 0 {
		return nil, fmt.Errorf("burs: internal: no rule for %s at %s",
			p.G.NTNames[nt], node.Expr)
	}
	r := &p.G.Rules[ri]
	var kids []*Step
	if r.Pat != rtl.NoExpr {
		var err error
		if kids, err = p.DeriveKids(r.Pat, node, nil); err != nil {
			return nil, err
		}
	}
	return &Step{Rule: r, Node: node, Kids: kids}, nil
}

// DeriveKids appends to kids the optimal derivations of the subject nodes
// at the nonterminal positions of the pattern of handle pat, in
// pre-order; the pattern must match node, which Label produced.
func (p *Parser) DeriveKids(pat rtl.ExprID, node *Node, kids []*Step) ([]*Step, error) {
	if nt := p.G.PatNT(pat); nt != 0 {
		kid, err := p.Derive(node, nt)
		if err != nil {
			return nil, err
		}
		return append(kids, kid), nil
	}
	for i, k := range p.G.Exprs().Kids(pat) {
		var err error
		if kids, err = p.DeriveKids(k, node.Kids[i], kids); err != nil {
			return nil, err
		}
	}
	return kids, nil
}
