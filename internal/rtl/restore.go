package rtl

import (
	"fmt"

	"repro/internal/bdd"
)

// RestoreBase rebuilds a template base from an already-deduplicated
// template list in its original Add order (a decoded retarget artifact).
// It reproduces the byKey disambiguation Add applied when the base was
// first built — duplicate transfer keys (templates kept apart because of
// distinct dynamic guards) are suffixed with the template id, which equals
// the nextID Add used at insertion time — so a restored base accepts
// further Add calls exactly like the original.  Every template's
// expressions must pass CheckShape: decoded trees come from disk, and
// everything downstream indexes Kids without checking.
func RestoreBase(m *bdd.Manager, templates []*Template) (*Base, error) {
	b := NewBase(m)
	for i, t := range templates {
		if t == nil {
			return nil, fmt.Errorf("rtl: restore: nil template at position %d", i)
		}
		exprs := append([]*Expr{t.Src}, t.Cond.Dynamic...)
		if t.DestAddr != nil {
			exprs = append(exprs, t.DestAddr)
		}
		for _, e := range exprs {
			if err := CheckShape(e); err != nil {
				return nil, fmt.Errorf("rtl: restore: template %d: %w", t.ID, err)
			}
		}
		key := t.Key()
		if _, ok := b.byKey[key]; ok {
			key = fmt.Sprintf("%s#%d", key, t.ID)
			if _, ok := b.byKey[key]; ok {
				return nil, fmt.Errorf("rtl: restore: duplicate template key %q", key)
			}
		}
		b.byKey[key] = t
		b.Templates = append(b.Templates, t)
		if t.ID >= b.nextID {
			b.nextID = t.ID + 1
		}
	}
	return b, nil
}

// CheckShape reports whether every node of e has the kids its kind needs:
// none for leaves, at most one (the address) for Read, one for Slice and
// Op.Arity() for OpApp, none of them nil.
func CheckShape(e *Expr) error {
	if e == nil {
		return fmt.Errorf("nil expression")
	}
	want := 0
	switch e.Kind {
	case Const, InsnField, PortRef:
	case Read:
		if want = len(e.Kids); want > 1 {
			return fmt.Errorf("read of %s has %d kids, want at most 1", e.Storage, want)
		}
	case Slice:
		want = 1
	case OpApp:
		want = e.Op.Arity()
	default:
		return fmt.Errorf("unknown expression kind %d", e.Kind)
	}
	if len(e.Kids) != want {
		return fmt.Errorf("expression kind %d has %d kids, want %d", e.Kind, len(e.Kids), want)
	}
	for _, k := range e.Kids {
		if err := CheckShape(k); err != nil {
			return err
		}
	}
	return nil
}
