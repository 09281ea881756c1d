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
	"strconv"
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
	Read                      // storage read; Kids[0] is the address for arrays
	PortRef                   // primary processor input port
	InsnField                 // instruction word bits Lo..Hi (an immediate operand)
	Slice                     // bit slice Lo..Hi of Kids[0] (a subword select)
)

// Expr is an RT-level expression tree.  Exprs are treated as immutable
// after construction; sharing subtrees is allowed.
type Expr struct {
	Kind    ExprKind
	Width   int    // result width in bits
	Op      Op     // OpApp
	Val     int64  // Const
	Storage string // Read: qualified "part.var"
	Port    string // PortRef: qualified primary port name
	Lo      int    // InsnField: bit range within the instruction word
	Hi      int
	Kids    []*Expr
}

// NewConst builds a constant node.
func NewConst(val int64, width int) *Expr {
	return &Expr{Kind: Const, Val: val, Width: width}
}

// NewOp builds an operator application.
func NewOp(op Op, width int, kids ...*Expr) *Expr {
	return &Expr{Kind: OpApp, Op: op, Width: width, Kids: kids}
}

// NewRead builds a storage read; addr may be nil for plain registers.
func NewRead(storage string, width int, addr *Expr) *Expr {
	e := &Expr{Kind: Read, Storage: storage, Width: width}
	if addr != nil {
		e.Kids = []*Expr{addr}
	}
	return e
}

// NewPort builds a primary input port reference.
func NewPort(port string, width int) *Expr {
	return &Expr{Kind: PortRef, Port: port, Width: width}
}

// NewInsnField builds an instruction-field (immediate) reference covering
// instruction word bits lo..hi.
func NewInsnField(hi, lo int) *Expr {
	return &Expr{Kind: InsnField, Lo: lo, Hi: hi, Width: hi - lo + 1}
}

// NewSlice builds a bit slice hi..lo of kid, folding constants, nested
// slices, instruction fields and full-range slices.
func NewSlice(hi, lo int, kid *Expr) *Expr {
	w := hi - lo + 1
	switch {
	case lo == 0 && w == kid.Width:
		return kid
	case kid.Kind == Const:
		mask := int64(1)<<uint(w) - 1
		return NewConst((kid.Val>>uint(lo))&mask, w)
	case kid.Kind == InsnField:
		return NewInsnField(kid.Lo+hi, kid.Lo+lo)
	case kid.Kind == Slice:
		return NewSlice(kid.Lo+hi, kid.Lo+lo, kid.Kids[0])
	}
	return &Expr{Kind: Slice, Lo: lo, Hi: hi, Width: w, Kids: []*Expr{kid}}
}

// Addr returns the address subexpression of a Read, or nil.
func (e *Expr) Addr() *Expr {
	if e.Kind == Read && len(e.Kids) == 1 {
		return e.Kids[0]
	}
	return nil
}

// Size returns the number of nodes in the tree.
func (e *Expr) Size() int {
	if e == nil {
		return 0
	}
	n := 1
	for _, k := range e.Kids {
		n += k.Size()
	}
	return n
}

// Depth returns the height of the tree (1 for a leaf).
func (e *Expr) Depth() int {
	if e == nil {
		return 0
	}
	d := 0
	for _, k := range e.Kids {
		if kd := k.Depth(); kd > d {
			d = kd
		}
	}
	return d + 1
}

// Clone returns a deep copy of the tree.
func (e *Expr) Clone() *Expr {
	if e == nil {
		return nil
	}
	c := *e
	if len(e.Kids) > 0 {
		c.Kids = make([]*Expr, len(e.Kids))
		for i, k := range e.Kids {
			c.Kids[i] = k.Clone()
		}
	}
	return &c
}

// Equal reports structural equality of two trees.
func (e *Expr) Equal(o *Expr) bool {
	if e == nil || o == nil {
		return e == o
	}
	if !sameHead(e, o) {
		return false
	}
	for i := range e.Kids {
		if !e.Kids[i].Equal(o.Kids[i]) {
			return false
		}
	}
	return true
}

// Walk calls f on every node of the tree in pre-order.
func (e *Expr) Walk(f func(*Expr)) {
	if e == nil {
		return
	}
	f(e)
	for _, k := range e.Kids {
		k.Walk(f)
	}
}

// InsnFields returns every instruction-field leaf in the tree, in pre-order.
func (e *Expr) InsnFields() []*Expr {
	var fields []*Expr
	e.Walk(func(n *Expr) {
		if n.Kind == InsnField {
			fields = append(fields, n)
		}
	})
	return fields
}

// String renders the tree in a compact prefix-free infix form used in
// diagnostics and golden tests.
func (e *Expr) String() string {
	var b strings.Builder
	e.Render(&b)
	return b.String()
}

// Render appends String's rendering of e to b, so a listing builds every
// line in one buffer.
func (e *Expr) Render(b *strings.Builder) { e.RenderSwap(b, 0) }

// SwapSite reports whether e is a swap site: a commutative binary
// operator, whose operands the template-base extension may exchange.  A
// tree's sites are numbered from 0 in pre-order, and bit i of a swap mask
// exchanges the operands of site i.
func (e *Expr) SwapSite() bool {
	return e.Kind == OpApp && len(e.Kids) == 2 && e.Op.Commutative()
}

// SwapSites returns the number of swap sites in the tree.
func (e *Expr) SwapSites() int {
	n := 0
	if e.SwapSite() {
		n++
	}
	for _, k := range e.Kids {
		n += k.SwapSites()
	}
	return n
}

// RenderSwap appends the rendering of e with the operands of the swap
// sites selected by mask exchanged.
func (e *Expr) RenderSwap(b *strings.Builder, mask uint64) {
	if e == nil {
		b.WriteString("<nil>")
		return
	}
	switch e.Kind {
	case Const:
		writeInt(b, e.Val)
	case PortRef:
		b.WriteString(e.Port)
	case InsnField:
		b.WriteString("IW[")
		if e.Hi != e.Lo {
			writeInt(b, int64(e.Hi))
			b.WriteByte(':')
		}
		writeInt(b, int64(e.Lo))
		b.WriteByte(']')
	case Read:
		b.WriteString(e.Storage)
		if a := e.Addr(); a != nil {
			b.WriteByte('[')
			a.RenderSwap(b, mask)
			b.WriteByte(']')
		}
	case Slice:
		e.Kids[0].RenderSwap(b, mask)
		b.WriteByte('[')
		writeInt(b, int64(e.Hi))
		b.WriteByte(':')
		writeInt(b, int64(e.Lo))
		b.WriteByte(']')
	case OpApp:
		if e.Op.Arity() == 1 {
			b.WriteString(string(e.Op))
			b.WriteByte('(')
			e.Kids[0].RenderSwap(b, mask)
			b.WriteByte(')')
			return
		}
		l, r := e.Kids[0], e.Kids[1]
		swapped := false
		if e.SwapSite() {
			swapped = mask&1 != 0
			mask >>= 1
		}
		// Each kid reads the mask from its own first site on; bits past
		// its last site are never consulted.
		lm, rm := mask, mask
		if mask != 0 {
			rm >>= uint(l.SwapSites())
		}
		if swapped {
			l, r, lm, rm = r, l, rm, lm
		}
		b.WriteByte('(')
		l.RenderSwap(b, lm)
		b.WriteByte(' ')
		b.WriteString(string(e.Op))
		b.WriteByte(' ')
		r.RenderSwap(b, rm)
		b.WriteByte(')')
	default:
		b.WriteString("<bad expr>")
	}
}

// writeInt appends v in decimal without going through fmt.
func writeInt(b *strings.Builder, v int64) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], v, 10))
}

// ExecCond is an RT template's execution condition: a static constraint over
// instruction-word and mode-register bits (the BDD), plus residual dynamic
// guards that depend on run-time state (e.g. a zero flag for conditional
// jumps).  A template is valid iff Static is satisfiable.
type ExecCond struct {
	Static  bdd.Node
	Dynamic []*Expr
}

// Template is one extracted RT template: Dest := Src under Cond.
type Template struct {
	ID       int    // position in the base, numbered together with its swaps
	Dest     string // qualified storage name, or primary output port name
	DestPort bool   // true when Dest is a primary output port
	// Synthetic marks templates added by algebraic extension rather than
	// extracted from the netlist.
	Synthetic bool
	addr      ExprID // DestAddr interned in the owning base
	DestAddr  *Expr  // address pattern for array destinations, nil otherwise
	Src       *Expr  // the tree pattern
	Cond      ExecCond
	Width     int    // transfer width
	src       ExprID // Src interned in the owning base
	index     int32  // position in the owning base's Templates
}

// SrcID returns the handle of Src in the store of the base t was added to.
func (t *Template) SrcID() ExprID { return t.src }

// AddrID returns the handle of DestAddr in that store (NoExpr for none).
func (t *Template) AddrID() ExprID { return t.addr }

// Index returns t's position in the Templates of the base it was added
// to.
func (t *Template) Index() int { return int(t.index) }

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
	b.WriteString(t.Dest)
	if t.DestAddr != nil {
		b.WriteByte('[')
		t.DestAddr.Render(b)
		b.WriteByte(']')
	}
	b.WriteString(" := ")
	t.Src.RenderSwap(b, mask)
	for i, d := range t.Cond.Dynamic {
		if i == 0 {
			b.WriteString(" when ")
		} else {
			b.WriteString(" && ")
		}
		d.Render(b)
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

// Exprs returns the store interning every template's source and address
// trees.  Trees interned by other users (dynamic guards, say) live there
// too; extension and grammar construction memoise their work per handle.
func (b *Base) Exprs() *Store { return &b.exprs }

// Add inserts t unless an identical transfer already exists; when a
// duplicate transfer arrives, their static conditions are OR-ed (the same
// RT reachable under several encodings).  Add interns t's source and
// address, replacing them with their canonical trees, and returns the
// canonical template.
func (b *Base) Add(t *Template) *Template {
	t.addr = b.exprs.Intern(t.DestAddr)
	t.DestAddr = b.exprs.Expr(t.addr)
	t.src = b.exprs.Intern(t.Src)
	t.Src = b.exprs.Expr(t.src)
	prev := b.find(t.Dest, t.DestPort, t.addr, t.src)
	if b.merge(prev, t.Cond) {
		return prev
	}
	return b.insert(prev, t)
}

// AddVariant adds the synthetic template performing of's transfer with the
// interned source src instead, with Add's deduplication.  of must belong
// to b.
func (b *Base) AddVariant(of *Template, src ExprID) *Template {
	prev := b.find(of.Dest, of.DestPort, of.addr, src)
	if b.merge(prev, of.Cond) {
		return prev
	}
	return b.insert(prev, &Template{
		Dest:      of.Dest,
		DestPort:  of.DestPort,
		DestAddr:  of.DestAddr,
		addr:      of.addr,
		Src:       b.exprs.Expr(src),
		src:       src,
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
		if t := b.Templates[i-1]; t.addr == addr && t.Dest == dest && t.DestPort == destPort {
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
	t.index = i
	b.Templates = append(b.Templates, t)
	b.next = append(b.next, 0)
	if prev == nil {
		for len(b.first) <= int(t.src) {
			b.first = append(b.first, 0)
		}
		b.next[i] = b.first[t.src]
		b.first[t.src] = i + 1
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
