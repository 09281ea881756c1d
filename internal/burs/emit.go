package burs

import (
	"fmt"
	"strings"

	"repro/internal/grammar"
	"repro/internal/rtl"
)

// EmitGo renders the grammar as a standalone Go source file — the analogue
// of iburg emitting C code for a grammar-specific tree parser that is then
// compiled into the retargeted compiler.  The emitted file contains the
// nonterminal table, the rule table (patterns in prefix form) and a
// table-driven labeller skeleton; it is valid Go and self-contained.
func EmitGo(g *grammar.Grammar, pkg string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by record's tree-parser generator; DO NOT EDIT.\n")
	fmt.Fprintf(&b, "// Grammar: %d nonterminals, %d rules.\n\n", g.NumNT(), len(g.Rules))
	fmt.Fprintf(&b, "package %s\n\n", pkg)

	b.WriteString("// NT indices.\nconst (\n")
	for i, n := range g.NTNames {
		fmt.Fprintf(&b, "\tnt%d = %d // %s\n", i, i, n)
	}
	b.WriteString(")\n\n")

	b.WriteString("// Rule describes one grammar rule in prefix pattern form.\n")
	b.WriteString("type Rule struct {\n\tID   int\n\tLHS  int\n\tCost int\n\tPat  string\n\tKind string\n}\n\n")

	b.WriteString("// Rules is the generated rule table.\nvar Rules = []Rule{\n")
	for i := range g.Rules {
		r := &g.Rules[i]
		fmt.Fprintf(&b, "\t{ID: %d, LHS: %d, Cost: %d, Pat: %q, Kind: %q},\n",
			i, r.LHS, r.Cost, prefixRule(g, r), r.Kind.String())
	}
	b.WriteString("}\n\n")

	b.WriteString(`// Labels holds per-node dynamic-programming state.
type Labels struct {
	Cost []int32
	Rule []int
}

// NewLabels allocates a label record with every cost infinite.
func NewLabels() *Labels {
	l := &Labels{Cost: make([]int32, ` + fmt.Sprint(g.NumNT()) + `), Rule: make([]int, ` + fmt.Sprint(g.NumNT()) + `)}
	for i := range l.Cost {
		l.Cost[i] = 1 << 29
		l.Rule[i] = -1
	}
	return l
}

// Record applies rule id if it improves nonterminal lhs at cost c.
func (l *Labels) Record(lhs int, c int32, id int) bool {
	if c < l.Cost[lhs] {
		l.Cost[lhs] = c
		l.Rule[lhs] = id
		return true
	}
	return false
}
`)
	return b.String()
}

// prefixRule renders r's pattern in compact prefix form for the emitted
// table.
func prefixRule(g *grammar.Grammar, r *grammar.Rule) string {
	switch r.Kind {
	case grammar.KindStart:
		return fmt.Sprintf("nt%d", r.Dest)
	case grammar.KindStop:
		return "reg:" + g.NTNames[r.LHS]
	}
	return prefixPat(g, r.Pat)
}

// prefixPat renders the pattern of handle h in prefix form.
func prefixPat(g *grammar.Grammar, h rtl.ExprID) string {
	if nt := g.PatNT(h); nt != 0 {
		return fmt.Sprintf("nt%d", nt)
	}
	e, kids := g.Exprs().Expr(h), g.Exprs().Kids(h)
	switch e.Kind {
	case rtl.OpApp:
		parts := make([]string, len(kids))
		for i, k := range kids {
			parts[i] = prefixPat(g, k)
		}
		return fmt.Sprintf("%s/%d(%s)", e.Op, e.Width, strings.Join(parts, ","))
	case rtl.Read:
		return fmt.Sprintf("mem:%s(%s)", e.Storage, prefixPat(g, kids[0]))
	case rtl.InsnField:
		return fmt.Sprintf("imm[%d:%d]", e.Hi, e.Lo)
	case rtl.Const:
		return fmt.Sprintf("const:%d", e.Val)
	case rtl.PortRef:
		return "port:" + e.Port
	case rtl.Slice:
		return fmt.Sprintf("slice[%d:%d](%s)", e.Hi, e.Lo, prefixPat(g, kids[0]))
	}
	return "?"
}
