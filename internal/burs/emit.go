package burs

import (
	"fmt"
	"strings"

	"repro/internal/grammar"
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
	for _, r := range g.Rules {
		fmt.Fprintf(&b, "\t{ID: %d, LHS: %d, Cost: %d, Pat: %q, Kind: %q},\n",
			r.ID, r.LHS, r.Cost, prefixPat(r.Pat), r.Kind.String())
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

// prefixPat renders a pattern in compact prefix form for the emitted table.
func prefixPat(p *grammar.Pat) string {
	switch p.Kind {
	case grammar.PatNT:
		return fmt.Sprintf("nt%d", p.NT)
	case grammar.PatOp:
		parts := make([]string, len(p.Kids))
		for i, k := range p.Kids {
			parts[i] = prefixPat(k)
		}
		return fmt.Sprintf("%s/%d(%s)", p.Op, p.Width, strings.Join(parts, ","))
	case grammar.PatReg:
		return "reg:" + p.Storage
	case grammar.PatMem:
		return fmt.Sprintf("mem:%s(%s)", p.Storage, prefixPat(p.Kids[0]))
	case grammar.PatImm:
		return fmt.Sprintf("imm[%d:%d]", p.ImmHi, p.ImmLo)
	case grammar.PatConst:
		return fmt.Sprintf("const:%d", p.Val)
	case grammar.PatPort:
		return "port:" + p.Port
	case grammar.PatSlice:
		return fmt.Sprintf("slice[%d:%d](%s)", p.Hi, p.Lo, prefixPat(p.Kids[0]))
	}
	return "?"
}
