package rtl

import (
	"math"

	"repro/internal/slab"
)

// ExprID is the handle of an expression tree in a Store.  Two trees built
// in one store get the same handle iff they have the same heads in the
// same shape.
type ExprID int32

// NoExpr is the handle of no tree (an absent address).
const NoExpr ExprID = -1

// minExprSlots is the initial size of an empty store's unique table.
const minExprSlots = 64

// Store hash-conses expression trees: a tree is the handle of its root,
// and each structurally distinct tree gets one handle, so equal subtrees
// share a handle.  The store keeps each handle's head, carved from a slab
// and found through the node slice, and its kids' handles; an
// open-addressed, linear-probed unique table over the nodes finds one by
// its head (kind, width and the kind's own fields) and its kids'
// handles.  The zero value is an empty store.  A Store is not safe for
// concurrent mutation.
//
// Reset reuses the store's tables and slab: a store that holds one
// program's trees after another stops allocating once it has held the
// largest.
type Store struct {
	exprs  []*Expr
	hashes []uint32 // hashes[id] is exprs[id]'s unique-table hash
	slots  []int32  // handle+1, 0 marks an empty slot; at most ¾ full
	// kids[kidAt[id]:kidAt[id+1]] are the handles of exprs[id]'s kids.
	kidAt []int32
	kids  []ExprID
	nodes slab.Slab[Expr]
}

// Len returns the number of distinct trees in the store.
func (s *Store) Len() int { return len(s.exprs) }

// Expr returns the head of handle id (nil for NoExpr).
func (s *Store) Expr(id ExprID) *Expr {
	if id == NoExpr {
		return nil
	}
	return s.exprs[id]
}

// Kids returns the handles of the kids of id, in order.  The slice is the
// store's own and must not be modified.
func (s *Store) Kids(id ExprID) []ExprID {
	lo, hi := s.kidAt[id], s.kidAt[id+1]
	return s.kids[lo:hi:hi]
}

// Addr returns the address of the read id, or NoExpr when id is no read
// of an array.
func (s *Store) Addr(id ExprID) ExprID {
	if kids := s.Kids(id); s.exprs[id].Kind == Read && len(kids) == 1 {
		return kids[0]
	}
	return NoExpr
}

// Node returns the handle of the tree with head's kind, width and own
// fields over the trees of handles kids, adding it if it is new.
func (s *Store) Node(head Expr, kids ...ExprID) ExprID {
	id, h, slot := s.find(&head, kids)
	if id != NoExpr {
		return id
	}
	c := s.nodes.New()
	*c = head
	return s.add(c, h, kids, slot)
}

// Const is Node for a constant head.
func (s *Store) Const(val int64, width int) ExprID {
	return s.Node(Expr{Kind: Const, Val: val, Width: width})
}

// Read is Node for a storage read; addr is NoExpr for plain registers.
func (s *Store) Read(storage string, width int, addr ExprID) ExprID {
	if addr == NoExpr {
		return s.Node(Expr{Kind: Read, Storage: storage, Width: width})
	}
	return s.Node(Expr{Kind: Read, Storage: storage, Width: width}, addr)
}

// Op is Node for an operator application.
func (s *Store) Op(op Op, width int, kids ...ExprID) ExprID {
	return s.Node(Expr{Kind: OpApp, Op: op, Width: width}, kids...)
}

// Slice returns a bit slice hi..lo of kid, folding constants, nested
// slices, instruction fields and full-range slices.
func (s *Store) Slice(hi, lo int, kid ExprID) ExprID {
	w, k := hi-lo+1, s.exprs[kid]
	switch {
	case lo == 0 && w == k.Width:
		return kid
	case k.Kind == Const:
		mask := int64(1)<<uint(w) - 1
		return s.Const((k.Val>>uint(lo))&mask, w)
	case k.Kind == InsnField:
		return s.Node(Expr{Kind: InsnField, Lo: k.Lo + lo, Hi: k.Lo + hi, Width: w})
	case k.Kind == Slice:
		return s.Slice(k.Lo+hi, k.Lo+lo, s.Kids(kid)[0])
	}
	return s.Node(Expr{Kind: Slice, Lo: lo, Hi: hi, Width: w}, kid)
}

// Reset empties the store, keeping its tables and slab for reuse.  Every
// handle, and every head the store returned, becomes invalid.
func (s *Store) Reset() {
	if s.slots == nil {
		return
	}
	s.exprs, s.hashes, s.kidAt, s.kids = s.exprs[:0], s.hashes[:0], s.kidAt[:1], s.kids[:0]
	clear(s.slots)
	s.nodes.Reset()
}

// find looks up the node with head's own fields over kids.  It returns
// the node's handle, or NoExpr with the node's hash and the empty slot
// where add inserts it.
func (s *Store) find(head *Expr, kids []ExprID) (id ExprID, h uint32, slot int) {
	h = headHash(head, len(kids))
	for _, k := range kids {
		h = mix(h, uint32(k))
	}
	if s.slots == nil {
		s.slots = make([]int32, minExprSlots)
		s.exprs = make([]*Expr, 0, minExprSlots*3/4)
		s.hashes = make([]uint32, 0, minExprSlots*3/4)
		s.kidAt = append(make([]int32, 0, minExprSlots*3/4+1), 0)
	}
	mask := len(s.slots) - 1
	i := int(h) & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		id := s.slots[i] - 1
		if s.hashes[id] == h && s.sameNode(id, head, kids) {
			return ExprID(id), h, i
		}
	}
	return NoExpr, h, i
}

// add gives canonical node c, of hash h and kids kids, the next handle and
// the empty unique-table slot slot that find returned.
func (s *Store) add(c *Expr, h uint32, kids []ExprID, slot int) ExprID {
	if len(s.exprs) >= math.MaxInt32-1 {
		panic("rtl: expression handles exhausted")
	}
	id := int32(len(s.exprs))
	s.exprs = append(s.exprs, c)
	s.hashes = append(s.hashes, h)
	s.kids = append(s.kids, kids...)
	s.kidAt = append(s.kidAt, int32(len(s.kids)))
	s.slots[slot] = id + 1
	if 4*len(s.exprs) >= 3*len(s.slots) {
		s.grow()
	}
	return ExprID(id)
}

// grow doubles the unique table and reinserts every handle.
func (s *Store) grow() {
	s.slots = make([]int32, 2*len(s.slots))
	mask := len(s.slots) - 1
	for id, h := range s.hashes {
		i := int(h) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(id) + 1
	}
}

// sameNode reports whether node id has e's own fields and the kids kids.
func (s *Store) sameNode(id int32, e *Expr, kids []ExprID) bool {
	own := s.Kids(ExprID(id))
	if len(own) != len(kids) || !sameFields(s.exprs[id], e) {
		return false
	}
	for i, k := range own {
		if kids[i] != k {
			return false
		}
	}
	return true
}

// sameFields compares the fields the store tells nodes apart by, besides
// their kids: kind, width and the kind's own fields.
func sameFields(e, o *Expr) bool {
	if e.Kind != o.Kind || e.Width != o.Width {
		return false
	}
	switch e.Kind {
	case Const:
		return e.Val == o.Val
	case OpApp:
		return e.Op == o.Op
	case Read:
		return e.Storage == o.Storage
	case PortRef:
		return e.Port == o.Port
	case InsnField, Slice:
		return e.Lo == o.Lo && e.Hi == o.Hi
	}
	return true
}

// headHash hashes the fields sameFields compares, for a node of nkids
// kids.
func headHash(e *Expr, nkids int) uint32 {
	h := mix(uint32(e.Kind), uint32(e.Width))
	h = mix(h, uint32(nkids))
	switch e.Kind {
	case Const:
		h = mix(mix(h, uint32(e.Val)), uint32(uint64(e.Val)>>32))
	case OpApp:
		h = mixString(h, string(e.Op))
	case Read:
		h = mixString(h, e.Storage)
	case PortRef:
		h = mixString(h, e.Port)
	case InsnField, Slice:
		h = mix(mix(h, uint32(e.Lo)), uint32(e.Hi))
	}
	return h
}

func mix(h, v uint32) uint32 {
	h = (h ^ v) * 0x9E3779B1
	return h ^ h>>15
}

// mixString folds s into h byte by byte (FNV-1a); names are short.
func mixString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 0x01000193
	}
	return mix(h, uint32(len(s)))
}
