// Package code defines the machine-code representation shared by the code
// generator, the compactor, the encoder and the simulator: RT instruction
// instances (a template plus concrete instruction-field operand values) and
// the data-dependence analysis between them that compaction must respect.
package code

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rtl"
)

// Field is one instruction-field operand assignment: instruction word bits
// Lo..Hi carry Val.
type Field struct {
	Hi, Lo int
	Val    int64
}

func (f Field) String() string {
	if f.Hi == f.Lo {
		return fmt.Sprintf("IW[%d]=%d", f.Lo, f.Val&1)
	}
	return fmt.Sprintf("IW[%d:%d]=%d", f.Hi, f.Lo, f.Val&int64(rtl.Mask(f.Hi-f.Lo+1)))
}

// Instr is one selected RT instance: the template to execute with concrete
// operand fields.
//
// Dependence queries (Def, Uses) are memoized on first call, because
// compaction and verification ask them many times per block while the
// answer is a pure function of Template and Fields.  The memo assumes
// Fields do not change after the first dependence query; instructions
// whose fields are patched late (jump targets) never take part in
// dependence analysis.  An Instr belongs to one compilation and its first
// dependence query is not safe for concurrent use.
type Instr struct {
	Template *rtl.Template
	// Swap is the mask of the swap entry the instruction was selected
	// through (rtl.Swap), 0 for Template itself.  A swap performs
	// Template's transfer, so only the rendering reads it.
	Swap   uint64
	Fields []Field
	// Comment carries provenance for listings (e.g. the source statement).
	Comment string

	depCached bool
	defCache  Loc
	usesCache []Loc
}

// Render appends the instruction's RT, swapped as selected, to b.
func (i *Instr) Render(b *strings.Builder) { i.Template.RenderSwap(b, i.Swap) }

// String renders the instruction with its operand fields.
func (i *Instr) String() string {
	var b strings.Builder
	i.Render(&b)
	s := b.String()
	if len(i.Fields) > 0 {
		parts := make([]string, len(i.Fields))
		for j, f := range i.Fields {
			parts[j] = f.String()
		}
		s += " {" + strings.Join(parts, ",") + "}"
	}
	return s
}

// FieldValue returns the value assigned to field (hi,lo), if any.
func (i *Instr) FieldValue(hi, lo int) (int64, bool) {
	for _, f := range i.Fields {
		if f.Hi == hi && f.Lo == lo {
			return f.Val, true
		}
	}
	return 0, false
}

// Loc is a storage location touched by an instruction: a storage name plus
// an optional concrete cell address.  AddrKnown=false means "some cell of
// the storage" and conflicts with every cell.
type Loc struct {
	Storage   string
	Addr      int64
	AddrKnown bool
}

func (l Loc) String() string {
	if l.AddrKnown {
		return fmt.Sprintf("%s[%d]", l.Storage, l.Addr)
	}
	return l.Storage + "[*]"
}

// Overlaps reports whether two locations may alias.
func (l Loc) Overlaps(o Loc) bool {
	if l.Storage != o.Storage {
		return false
	}
	if !l.AddrKnown || !o.AddrKnown {
		return true
	}
	return l.Addr == o.Addr
}

// Def returns the location written by the instruction (not meaningful for
// primary-output templates, which return a port pseudo-location).  The
// result is memoized; see the Instr doc comment for the caveats.
func (i *Instr) Def() Loc {
	if !i.depCached {
		i.fillDeps()
	}
	return i.defCache
}

// Uses returns the locations read by the instruction (storage reads in the
// source pattern and in the destination-address pattern), plus reads
// implied by dynamic guards.  The returned slice is memoized and must not
// be mutated.
func (i *Instr) Uses() []Loc {
	if !i.depCached {
		i.fillDeps()
	}
	return i.usesCache
}

// fillDeps computes the dependence memo: the written location and every
// read location, both pure functions of the template and field values.
func (i *Instr) fillDeps() {
	t := i.Template
	switch {
	case t.DestPort:
		i.defCache = Loc{Storage: "port:" + t.Dest, AddrKnown: true}
	case t.DestAddr == nil:
		i.defCache = Loc{Storage: t.Dest, AddrKnown: true}
	default:
		if a, ok := i.ResolveAddr(t.DestAddr); ok {
			i.defCache = Loc{Storage: t.Dest, Addr: a, AddrKnown: true}
		} else {
			i.defCache = Loc{Storage: t.Dest}
		}
	}

	var buf [8]Loc // most RTs read a few locations: one allocation, sized once
	uses := buf[:0]
	add := func(e *rtl.Expr) {
		e.Walk(func(n *rtl.Expr) {
			if n.Kind != rtl.Read {
				return
			}
			loc := Loc{Storage: n.Storage, AddrKnown: true}
			if a := n.Addr(); a != nil {
				if v, ok := i.ResolveAddr(a); ok {
					loc.Addr = v
				} else {
					loc.AddrKnown = false
				}
			}
			uses = append(uses, loc)
		})
	}
	add(t.Src)
	if t.DestAddr != nil {
		add(t.DestAddr)
	}
	for _, g := range t.Cond.Dynamic {
		add(g)
	}
	i.usesCache = append([]Loc(nil), uses...)
	i.depCached = true
}

// ResolveAddr resolves an address pattern to a concrete value using the
// instruction's field assignments (InsnField → field value, Const →
// value); anything else is unknown.
func (i *Instr) ResolveAddr(a *rtl.Expr) (int64, bool) {
	switch a.Kind {
	case rtl.Const:
		return a.Val, true
	case rtl.InsnField:
		return i.FieldValue(a.Hi, a.Lo)
	}
	return 0, false
}

// RAW reports a read-after-write dependence: b reads what a wrote.  b must
// execute in a strictly later word (parallel RTs read cycle-start values).
func RAW(a, b *Instr) bool {
	defA := a.Def()
	for _, u := range b.Uses() {
		if defA.Overlaps(u) {
			return true
		}
	}
	return false
}

// WAW reports a write-after-write dependence: both write a common
// location.  b must execute in a strictly later word.
func WAW(a, b *Instr) bool { return a.Def().Overlaps(b.Def()) }

// WAR reports a write-after-read anti-dependence: b writes what a read.
// Time-stationary parallel RTs read at cycle start, so b may share a's
// word but must not precede it.
func WAR(a, b *Instr) bool {
	defB := b.Def()
	for _, u := range a.Uses() {
		if defB.Overlaps(u) {
			return true
		}
	}
	return false
}

// Word is one machine instruction word: RT instances executing in parallel.
type Word struct {
	Instrs []*Instr
	// Bits is the encoded instruction word (filled by the encoder).
	Bits uint64
	// Encoded reports whether Bits is valid.
	Encoded bool
}

func (w *Word) String() string {
	var b strings.Builder
	for i, in := range w.Instrs {
		if i > 0 {
			b.WriteString("  ||  ")
		}
		in.Render(&b)
	}
	return b.String()
}

// Seq is a code sequence (one basic block).
type Seq struct {
	Instrs []*Instr
}

// Append adds an instruction.
func (s *Seq) Append(i *Instr) { s.Instrs = append(s.Instrs, i) }

// Len returns the instruction count (pre-compaction code size).
func (s *Seq) Len() int { return len(s.Instrs) }

// String renders the sequence one instruction per line.
func (s *Seq) String() string {
	var b strings.Builder
	for i, in := range s.Instrs {
		fmt.Fprintf(&b, "%4d: %s", i, in)
		if in.Comment != "" {
			fmt.Fprintf(&b, "  ; %s", in.Comment)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Program is compacted code: a sequence of instruction words.
type Program struct {
	Words []*Word
}

// Len returns the word count (post-compaction code size).
func (p *Program) Len() int { return len(p.Words) }

// String renders one word per line.
func (p *Program) String() string {
	var b strings.Builder
	for i, w := range p.Words {
		if w.Encoded {
			fmt.Fprintf(&b, "%4d: %016x  %s\n", i, w.Bits, w)
		} else {
			fmt.Fprintf(&b, "%4d: %s\n", i, w)
		}
	}
	return b.String()
}

// Storages returns the sorted set of storages defined anywhere in the
// sequence (useful for diagnostics).
func (s *Seq) Storages() []string {
	set := make(map[string]bool)
	for _, in := range s.Instrs {
		set[in.Def().Storage] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
