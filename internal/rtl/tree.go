package rtl

import (
	"strconv"
	"strings"
)

// String renders the tree of handle id in a compact prefix-free infix form
// used in diagnostics and golden tests.
func (s *Store) String(id ExprID) string {
	var b strings.Builder
	s.Render(&b, id)
	return b.String()
}

// Render appends String's rendering of id to b, so a listing builds every
// line in one buffer.
func (s *Store) Render(b *strings.Builder, id ExprID) { s.RenderSwap(b, id, 0) }

// SwapSite reports whether id is a swap site: a commutative binary
// operator, whose operands the template-base extension may exchange.  A
// tree's sites are numbered from 0 in pre-order, and bit i of a swap mask
// exchanges the operands of site i.
func (s *Store) SwapSite(id ExprID) bool {
	e := s.exprs[id]
	return e.Kind == OpApp && len(s.Kids(id)) == 2 && e.Op.Commutative()
}

// SwapSites returns the number of swap sites in the tree of id.
func (s *Store) SwapSites(id ExprID) int {
	n := 0
	if s.SwapSite(id) {
		n++
	}
	for _, k := range s.Kids(id) {
		n += s.SwapSites(k)
	}
	return n
}

// RenderSwap appends the rendering of id with the operands of the swap
// sites selected by mask exchanged.
func (s *Store) RenderSwap(b *strings.Builder, id ExprID, mask uint64) {
	if id == NoExpr {
		b.WriteString("<nil>")
		return
	}
	e, kids := s.exprs[id], s.Kids(id)
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
		if len(kids) == 1 {
			b.WriteByte('[')
			s.RenderSwap(b, kids[0], mask)
			b.WriteByte(']')
		}
	case Slice:
		s.RenderSwap(b, kids[0], mask)
		b.WriteByte('[')
		writeInt(b, int64(e.Hi))
		b.WriteByte(':')
		writeInt(b, int64(e.Lo))
		b.WriteByte(']')
	case OpApp:
		if e.Op.Arity() == 1 {
			b.WriteString(string(e.Op))
			b.WriteByte('(')
			s.RenderSwap(b, kids[0], mask)
			b.WriteByte(')')
			return
		}
		l, r := kids[0], kids[1]
		swapped := false
		if s.SwapSite(id) {
			swapped = mask&1 != 0
			mask >>= 1
		}
		// Each kid reads the mask from its own first site on; bits past
		// its last site are never consulted.
		lm, rm := mask, mask
		if mask != 0 {
			rm >>= uint(s.SwapSites(l))
		}
		if swapped {
			l, r, lm, rm = r, l, rm, lm
		}
		b.WriteByte('(')
		s.RenderSwap(b, l, lm)
		b.WriteByte(' ')
		b.WriteString(string(e.Op))
		b.WriteByte(' ')
		s.RenderSwap(b, r, rm)
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

// ClassHash hashes the commutation class of id: trees that differ only in
// the operand order of swap sites hash alike.  Each node contributes its
// head's hash, so one handle always hashes alike.  distinct reports that
// no swap site of the tree has two operands of one class (by hash, so a
// collision only reports a false "no").
func (s *Store) ClassHash(id ExprID) (class uint32, distinct bool) {
	ids := s.Kids(id)
	h := headHash(s.exprs[id], len(ids))
	distinct = true
	var buf [2]uint32
	kids := buf[:0]
	for _, k := range ids {
		c, d := s.ClassHash(k)
		kids = append(kids, c)
		distinct = distinct && d
	}
	if s.SwapSite(id) {
		distinct = distinct && kids[0] != kids[1]
		kids[0], kids[1] = min(kids[0], kids[1]), max(kids[0], kids[1])
	}
	for _, c := range kids {
		h = mix(h, c)
	}
	return h, distinct
}

// ReplaceAt returns the tree of id with its subtree at pre-order position
// pos (0 is the root) replaced by repl.  Only the nodes on the path to
// that subtree can be new.
func (s *Store) ReplaceAt(id ExprID, pos int, repl ExprID) ExprID {
	id, _ = s.replaceFrom(id, pos, repl)
	return id
}

// replaceFrom is ReplaceAt's walk: it also returns how many positions
// past the tree of id pos lies, or -1 once the subtree is replaced.
func (s *Store) replaceFrom(id ExprID, pos int, repl ExprID) (ExprID, int) {
	if pos == 0 {
		return repl, -1
	}
	pos--
	kids := s.Kids(id)
	for i, k := range kids {
		var nk ExprID
		if nk, pos = s.replaceFrom(k, pos, repl); pos < 0 {
			var buf [2]ExprID
			nkids := append(buf[:0], kids...)
			nkids[i] = nk
			return s.Node(*s.exprs[id], nkids...), -1
		}
	}
	return id, pos
}
