// Package rtl defines the register-transfer-level expression trees and RT
// templates that form RECORD's behavioral processor view.
//
// An RT template represents one primitive processor operation: a transfer
// of a value, computed by a tree of hardware operators, into a storage
// destination (register, memory cell) or output port within a single
// machine cycle (paper section 2).  Templates carry an execution condition
// — the instruction-word/mode-register constraint under which the hardware
// actually performs the transfer — represented as a BDD, plus any residual
// dynamic guards (e.g. a conditional jump's flag test).
package rtl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bdd"
)

// Op names an RT-level hardware operator.  The set is open: HDL models may
// use any operator the simulator and IR agree on, but these cover the
// fixed-point DSP class of the paper.
type Op string

// Canonical operator names shared between HDL behaviors, extracted
// templates, the tree grammar and the compiler IR.
const (
	OpAdd  Op = "+"
	OpSub  Op = "-"
	OpMul  Op = "*"
	OpDiv  Op = "/"
	OpMod  Op = "%"
	OpAnd  Op = "&"
	OpOr   Op = "|"
	OpXor  Op = "^"
	OpShl  Op = "<<"
	OpShr  Op = ">>"  // logical right shift
	OpAshr Op = ">>>" // arithmetic right shift
	OpEq   Op = "=="
	OpNe   Op = "!="
	OpLt   Op = "<"
	OpLe   Op = "<="
	OpGt   Op = ">"
	OpGe   Op = ">="
	OpNeg  Op = "neg"
	OpNot  Op = "~"
	OpPass Op = "pass" // identity (wire through an FU)
)

// Commutative reports whether swapping the two operands of op preserves
// semantics; used by the template-base extension (paper section 3).
func (op Op) Commutative() bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe:
		return true
	}
	return false
}

// Arity returns the operand count of op (1 or 2).
func (op Op) Arity() int {
	switch op {
	case OpNeg, OpNot, OpPass:
		return 1
	}
	return 2
}

// ExprKind discriminates RT expression nodes.
type ExprKind int

// Expression node kinds.
const (
	Const     ExprKind = iota // integer constant (hardwired or program)
	OpApp                     // operator application
	Read                      // storage read; its kid is the address for arrays
	PortRef                   // primary processor input port
	InsnField                 // instruction word bits Lo..Hi (an immediate operand)
	Slice                     // bit slice Lo..Hi of its kid (a subword select)
)

// Expr is the head of an RT-level expression node: its kind, width and
// the kind's own fields.  A tree is a handle into a Store, which holds
// each node's head and the handles of its kids.
type Expr struct {
	Kind    ExprKind
	Width   int    // result width in bits
	Op      Op     // OpApp
	Val     int64  // Const
	Storage string // Read: qualified "part.var"
	Port    string // PortRef: qualified primary port name
	Lo      int    // InsnField, Slice: bit range
	Hi      int
}

// ExecCond is an RT template's execution condition: a static constraint over
// instruction-word and mode-register bits (the BDD), plus residual dynamic
// guards that depend on run-time state (e.g. a zero flag for conditional
// jumps), handles in the template's store.  A template is valid iff
// Static is satisfiable.
type ExecCond struct {
	Static  bdd.Node
	Dynamic []ExprID
}

// Template is one extracted RT template: Dest := Src under Cond.  Its
// trees are handles into the store of the base it belongs to.
type Template struct {
	ID       int    // position in the base, numbered together with its swaps
	Dest     string // qualified storage name, or primary output port name
	DestPort bool   // true when Dest is a primary output port
	// Synthetic marks templates added by algebraic extension rather than
	// extracted from the netlist.
	Synthetic bool
	DestAddr  ExprID // address pattern for array destinations, NoExpr otherwise
	Src       ExprID // the tree pattern
	index     int32  // position in the owning base's Templates
	Cond      ExecCond
	Width     int    // transfer width
	exprs     *Store // the owning base's store
}

// Index returns t's position in the Templates of the base it was added
// to.
func (t *Template) Index() int { return int(t.index) }

// Exprs returns the store holding t's trees: that of the base t was added
// to.
func (t *Template) Exprs() *Store { return t.exprs }

// String renders the template as "dest := src [cond]".
func (t *Template) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Render appends String's rendering of t to b.
func (t *Template) Render(b *strings.Builder) { t.RenderSwap(b, 0) }

// RenderSwap appends the rendering of t with the swap sites of its source
// selected by mask exchanged.
func (t *Template) RenderSwap(b *strings.Builder, mask uint64) {
	s := t.exprs
	b.WriteString(t.Dest)
	if t.DestAddr != NoExpr {
		b.WriteByte('[')
		s.Render(b, t.DestAddr)
		b.WriteByte(']')
	}
	b.WriteString(" := ")
	s.RenderSwap(b, t.Src, mask)
	for i, d := range t.Cond.Dynamic {
		if i == 0 {
			b.WriteString(" when ")
		} else {
			b.WriteString(" && ")
		}
		s.Render(b, d)
	}
}

// Swap is a commutative operand swap of a template (paper section 3): Of's
// transfer with the operands of the swap sites of Of.Src that Mask selects
// exchanged.  A swap is an entry of the base without a template of its
// own: it shares Of's condition, grammar pattern and encoding.  Every
// entry of a base reads as a Swap; a template itself has mask 0.
type Swap struct {
	ID   int // position in the base, numbered together with the templates
	Of   *Template
	Mask uint64
}

// String renders the swapped transfer as Template.String does.
func (s Swap) String() string {
	var b strings.Builder
	s.Of.RenderSwap(&b, s.Mask)
	return b.String()
}

// Base is an RT template base: the complete set of valid templates for one
// processor, with structural deduplication.  Its entries are templates and
// the swaps of templates, numbered together in the order they were added.
type Base struct {
	// Templates lists the templates in ID order; Swaps the swaps.
	Templates []*Template
	Swaps     []Swap
	exprs     Store
	// A template's identity is its destination, address and source, not
	// its condition: structurally equal transfers with different
	// encodings merge.  The templates that claimed an identity are
	// chained per source handle: first[src] is 1 + the index in Templates
	// of the chain's head, next[i] is 1 + the index after Templates[i],
	// and 0 ends it.
	first, next []int32
	// BDD is the manager owning every template's static condition.
	BDD *bdd.Manager
}

// NewBase creates an empty template base whose conditions live in m.
func NewBase(m *bdd.Manager) *Base {
	return &Base{BDD: m}
}

// Exprs returns the store holding every template's trees: sources,
// destination addresses and dynamic guards, and the trees extraction and
// extension build on the way to them.  Extension and grammar
// construction memoise their work per handle.
func (b *Base) Exprs() *Store { return &b.exprs }

// Add inserts t unless an identical transfer already exists; when a
// duplicate transfer arrives, their static conditions are OR-ed (the same
// RT reachable under several encodings).  t's trees must be handles in
// b.Exprs().  Add returns the canonical template.
func (b *Base) Add(t *Template) *Template {
	prev := b.find(t.Dest, t.DestPort, t.DestAddr, t.Src)
	if b.merge(prev, t.Cond) {
		return prev
	}
	return b.insert(prev, t)
}

// AddVariant adds the synthetic template performing of's transfer with the
// source src, a handle in b.Exprs(), instead, with Add's deduplication.
// of must belong to b.
func (b *Base) AddVariant(of *Template, src ExprID) *Template {
	prev := b.find(of.Dest, of.DestPort, of.DestAddr, src)
	if b.merge(prev, of.Cond) {
		return prev
	}
	return b.insert(prev, &Template{
		Dest:      of.Dest,
		DestPort:  of.DestPort,
		DestAddr:  of.DestAddr,
		Src:       src,
		Width:     of.Width,
		Cond:      of.Cond,
		Synthetic: true,
	})
}

// AddSwap adds the swap of the sites of of's source selected by mask as
// the next entry.  It does not deduplicate: the caller guarantees that the
// swapped transfer equals no other entry, before or after it, so that
// AddVariant would have inserted it and nothing would merge into it, and
// that of's condition does not change afterwards.  of must belong to b.
func (b *Base) AddSwap(of *Template, mask uint64) {
	b.Swaps = append(b.Swaps, Swap{ID: b.Len(), Of: of, Mask: mask})
}

// Each calls f on every entry in ID order: each template as its own swap
// with mask 0, interleaved with the swaps.
func (b *Base) Each(f func(Swap)) {
	ts, ss := b.Templates, b.Swaps
	for len(ts) > 0 || len(ss) > 0 {
		if len(ss) == 0 || len(ts) > 0 && ts[0].ID < ss[0].ID {
			f(Swap{ID: ts[0].ID, Of: ts[0]})
			ts = ts[1:]
		} else {
			f(ss[0])
			ss = ss[1:]
		}
	}
}

// find returns the first template added with the given identity, or nil.
func (b *Base) find(dest string, destPort bool, addr, src ExprID) *Template {
	if int(src) >= len(b.first) {
		return nil
	}
	for i := b.first[src]; i != 0; i = b.next[i-1] {
		if t := b.Templates[i-1]; t.DestAddr == addr && t.Dest == dest && t.DestPort == destPort {
			return t
		}
	}
	return nil
}

// merge ORs cond into prev, the template found with the same identity,
// and reports whether it did.  A transfer with dynamic guards on either
// side is never merged: both are kept.
func (b *Base) merge(prev *Template, cond ExecCond) bool {
	if prev == nil || len(cond.Dynamic) > 0 || len(prev.Cond.Dynamic) > 0 {
		return false
	}
	prev.Cond.Static = b.BDD.Or(prev.Cond.Static, cond.Static)
	return true
}

// insert appends t as a new template.  Unless a template with its
// identity exists (prev), t becomes the one later duplicates merge into.
func (b *Base) insert(prev, t *Template) *Template {
	t.ID = b.Len()
	i := int32(len(b.Templates))
	t.index, t.exprs = i, &b.exprs
	b.Templates = append(b.Templates, t)
	b.next = append(b.next, 0)
	if prev == nil {
		for len(b.first) <= int(t.Src) {
			b.first = append(b.first, 0)
		}
		b.next[i] = b.first[t.Src]
		b.first[t.Src] = i + 1
	}
	return t
}

// Len returns the number of entries: templates plus swaps.
func (b *Base) Len() int { return len(b.Templates) + len(b.Swaps) }

// Destinations returns the sorted set of distinct destinations.
func (b *Base) Destinations() []string {
	set := make(map[string]bool)
	for _, t := range b.Templates {
		set[t.Dest] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// String renders the whole base, one entry per line, sorted by ID.
func (b *Base) String() string {
	var sb strings.Builder
	b.Each(func(s Swap) { fmt.Fprintf(&sb, "%4d: %s\n", s.ID, s) })
	return sb.String()
}
