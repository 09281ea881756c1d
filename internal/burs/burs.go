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
// Patterns are plain trees: the grammar gives every commutative swap a
// rule with its own swapped pattern, so matching and derivation walk
// every pattern kid by kid.
//
// iburg emits C source compiled into the retargeted compiler; EmitGo
// mirrors that step by generating a Go source rendering of the rule tables.
package burs

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
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
	// cost[nt] is the minimal derivation cost of this subtree from
	// nonterminal nt; rule[nt] achieves it.
	cost []int32
	rule []*grammar.Rule
}

// Cost returns the minimal cost of deriving the subtree from nonterminal
// nt (Inf if impossible).
func (n *Node) Cost(nt int) int { return int(n.cost[nt]) }

// Rule returns the rule achieving Cost(nt), or nil.
func (n *Node) Rule(nt int) *grammar.Rule { return n.rule[nt] }

// Parser is a processor-specific tree parser generated from a grammar.
type Parser struct {
	G *grammar.Grammar
	// chain is the chain-rule table in ascending source-nonterminal order.
	// Closure must not iterate the grammar's ChainRules map directly: on a
	// cost tie the first rule processed wins, so map order would make code
	// selection (and artifact-cached compiles) nondeterministic.
	chain []chainGroup
}

type chainGroup struct {
	src   int
	rules []*grammar.Rule
}

// NewParser constructs the parser for grammar g.
func NewParser(g *grammar.Grammar) *Parser {
	p := &Parser{G: g}
	srcs := make([]int, 0, len(g.ChainRules))
	for src := range g.ChainRules {
		srcs = append(srcs, src)
	}
	sort.Ints(srcs)
	for _, src := range srcs {
		p.chain = append(p.chain, chainGroup{src: src, rules: g.ChainRules[src]})
	}
	return p
}

// Label computes the dynamic-programming labels for the subject tree.
// Every node's labels live in arrays shared by the whole tree.
func (p *Parser) Label(e *rtl.Expr) *Node {
	size, nNT := e.Size(), p.G.NumNT()
	l := &labeler{
		nodes: make([]Node, size),
		kids:  make([]*Node, size-1),
		cost:  make([]int32, size*nNT),
		rule:  make([]*grammar.Rule, size*nNT),
	}
	for i := range l.cost {
		l.cost[i] = Inf
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
	rule   []*grammar.Rule
}

// label labels e bottom-up.
func (p *Parser) label(e *rtl.Expr, l *labeler) *Node {
	nNT, nKids := p.G.NumNT(), len(e.Kids)
	node := &l.nodes[0]
	*node = Node{Expr: e, Kids: l.kids[:nKids:nKids], cost: l.cost[:nNT:nNT], rule: l.rule[:nNT:nNT]}
	l.nodes, l.kids, l.cost, l.rule = l.nodes[1:], l.kids[nKids:], l.cost[nNT:], l.rule[nNT:]
	for i, k := range e.Kids {
		node.Kids[i] = p.label(k, l)
	}
	// Match every rule whose root terminal fits this node.
	var rules []*grammar.Rule
	if term := p.G.SubjectTerm(e); term >= 0 {
		rules = p.G.RulesByTerm[term]
	}
	for _, r := range rules {
		var c int32
		if c, l.fields = p.MatchCostFields(r.Pat, node, l.fields[:0]); c >= Inf {
			continue
		}
		total := int32(r.Cost) + c
		if total < node.cost[r.LHS] {
			node.cost[r.LHS] = total
			node.rule[r.LHS] = r
		}
	}
	// Chain-rule closure to fixpoint, in deterministic table order.
	for changed := true; changed; {
		changed = false
		for _, cg := range p.chain {
			if node.cost[cg.src] >= Inf {
				continue
			}
			src := cg.src
			for _, r := range cg.rules {
				total := int32(r.Cost) + node.cost[src]
				if total < node.cost[r.LHS] {
					node.cost[r.LHS] = total
					node.rule[r.LHS] = r
					changed = true
				}
			}
		}
	}
	return node
}

// MatchCostFields returns the cost of matching pattern pat at node
// (excluding the rule's own cost), or Inf, and fields with the operand
// fields the match binds added.  fields is kept sorted by (Lo, Hi) and
// holds each bit range once.  Nonlinear patterns — where one instruction
// field appears at several leaves (both FU inputs wired to the same memory
// output, say) — only match when every occurrence binds the same operand
// value.  Passing one pattern's result on to the next (a template's source
// and destination-address patterns) enforces consistency across both.
func (p *Parser) MatchCostFields(pat *grammar.Pat, node *Node, fields []code.Field) (int32, []code.Field) {
	if pat.Kind == grammar.PatNT {
		return node.cost[pat.NT], fields
	}
	if !pat.MatchesLeaf(node.Expr) {
		return Inf, fields
	}
	if pat.Kind == grammar.PatImm {
		f := code.Field{Hi: pat.ImmHi, Lo: pat.ImmLo, Val: node.Expr.Val}
		i, found := slices.BinarySearchFunc(fields, f, func(a, b code.Field) int {
			return cmp.Or(cmp.Compare(a.Lo, b.Lo), cmp.Compare(a.Hi, b.Hi))
		})
		if !found {
			return 0, slices.Insert(fields, i, f)
		}
		if fields[i].Val != f.Val {
			return Inf, fields
		}
		return 0, fields
	}
	if len(pat.Kids) != len(node.Kids) {
		return Inf, fields
	}
	var sum int32
	for i, kid := range node.Kids {
		var c int32
		if c, fields = p.MatchCostFields(pat.Kids[i], kid, fields); c >= Inf {
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
// bottom-up (operand-first) order.
func (s *Step) Templates() []*rtl.Template {
	var out []*rtl.Template
	s.Walk(func(st *Step) {
		if st.Rule.Kind == grammar.KindRT {
			out = append(out, st.Rule.Template)
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
	sr, ok := p.G.StartRules[dest]
	if !ok {
		return nil, fmt.Errorf("burs: unknown destination %q", dest)
	}
	nt := sr.Pat.NT
	if root.cost[nt] >= Inf {
		var derivable []string
		for i := 1; i < p.G.NumNT(); i++ {
			if root.cost[i] < Inf {
				derivable = append(derivable, p.G.NTNames[i])
			}
		}
		sort.Strings(derivable)
		return nil, &CoverError{Dest: dest, Expr: root.Expr, Derivable: derivable}
	}
	step, err := p.Derive(root, nt)
	if err != nil {
		return nil, err
	}
	return &Cover{Dest: dest, Start: sr, Root: step, Cost: int(root.cost[nt]) + sr.Cost}, nil
}

// Derive reconstructs the optimal derivation of node from nonterminal nt
// (Label must have produced the node).
func (p *Parser) Derive(node *Node, nt int) (*Step, error) {
	r := node.rule[nt]
	if r == nil {
		return nil, fmt.Errorf("burs: internal: no rule for %s at %s",
			p.G.NTNames[nt], node.Expr)
	}
	kids, err := p.DeriveKids(r.Pat, node, nil)
	if err != nil {
		return nil, err
	}
	return &Step{Rule: r, Node: node, Kids: kids}, nil
}

// DeriveKids appends to kids the optimal derivations of the subject nodes
// at pattern pat's nonterminal positions, in pre-order; pat must match
// node, which Label produced.
func (p *Parser) DeriveKids(pat *grammar.Pat, node *Node, kids []*Step) ([]*Step, error) {
	if pat.Kind == grammar.PatNT {
		kid, err := p.Derive(node, pat.NT)
		if err != nil {
			return nil, err
		}
		return append(kids, kid), nil
	}
	for i, kid := range node.Kids {
		var err error
		if kids, err = p.DeriveKids(pat.Kids[i], kid, kids); err != nil {
			return nil, err
		}
	}
	return kids, nil
}
