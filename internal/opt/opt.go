// Package opt implements peephole optimization of sequential RT code
// between code selection and compaction: redundant-load elimination (a
// register reloaded from a memory cell whose value it already mirrors) and
// dead-store elimination (a store overwritten by a later store to the same
// cell with no intervening read).
//
// Code selection works one expression tree at a time with all program
// variables bound to memory, so accumulator values are stored and
// immediately reloaded between consecutive statements (e.g. the running
// sum of a multiply-accumulate loop).  The paper's per-basic-block quality
// relies on removing exactly this traffic before compaction packs the
// surviving RTs.
package opt

import (
	"repro/internal/code"
	"repro/internal/rtl"
)

// Stats reports what Optimize removed.
type Stats struct {
	LoadsRemoved  int
	StoresRemoved int
	Passes        int
}

// Optimize returns a new sequence with redundant loads and dead stores
// removed, iterating to a fixpoint.
func Optimize(seq *code.Seq) (*code.Seq, Stats) {
	var st Stats
	cur := seq.Instrs
	for {
		st.Passes++
		afterLoads, nl := removeRedundantLoads(cur)
		afterStores, ns := removeDeadStores(afterLoads)
		st.LoadsRemoved += nl
		st.StoresRemoved += ns
		cur = afterStores
		if nl == 0 && ns == 0 {
			break
		}
	}
	out := &code.Seq{}
	for _, in := range cur {
		out.Append(in)
	}
	return out, st
}

// loadOf reports whether in is a plain register load "reg := mem[addr]"
// with a concrete address.
func loadOf(in *code.Instr) (reg string, cell code.Loc, ok bool) {
	t := in.Template
	if t.DestPort || t.DestAddr != rtl.NoExpr {
		return "", code.Loc{}, false
	}
	addr := t.Exprs().Addr(t.Src)
	if addr == rtl.NoExpr {
		return "", code.Loc{}, false
	}
	a, known := in.ResolveAddr(addr)
	if !known {
		return "", code.Loc{}, false
	}
	return t.Dest, code.Loc{Storage: t.Exprs().Expr(t.Src).Storage, Addr: a, AddrKnown: true}, true
}

// storeOf reports whether in is a plain store "mem[addr] := reg" with a
// concrete address.
func storeOf(in *code.Instr) (reg string, cell code.Loc, ok bool) {
	t := in.Template
	if t.DestPort || t.DestAddr == rtl.NoExpr {
		return "", code.Loc{}, false
	}
	s := t.Exprs()
	src := s.Expr(t.Src)
	if src.Kind != rtl.Read || s.Addr(t.Src) != rtl.NoExpr {
		return "", code.Loc{}, false
	}
	a, known := in.ResolveAddr(t.DestAddr)
	if !known {
		return "", code.Loc{}, false
	}
	return src.Storage, code.Loc{Storage: t.Dest, Addr: a, AddrKnown: true}, true
}

// mirror is a known equality between a register and a memory cell.
type mirror struct {
	reg  string
	cell code.Loc
}

// removeRedundantLoads deletes loads whose register already mirrors the
// loaded cell.
func removeRedundantLoads(instrs []*code.Instr) ([]*code.Instr, int) {
	var facts []mirror
	removed := 0
	var out []*code.Instr

	kill := func(pred func(mirror) bool) {
		kept := facts[:0]
		for _, f := range facts {
			if !pred(f) {
				kept = append(kept, f)
			}
		}
		facts = kept
	}
	holds := func(reg string, cell code.Loc) bool {
		for _, f := range facts {
			if f.reg == reg && f.cell == cell {
				return true
			}
		}
		return false
	}

	for _, in := range instrs {
		if reg, cell, ok := loadOf(in); ok {
			if holds(reg, cell) {
				removed++
				continue // the register already holds this value
			}
			kill(func(f mirror) bool { return f.reg == reg })
			facts = append(facts, mirror{reg, cell})
			out = append(out, in)
			continue
		}
		if reg, cell, ok := storeOf(in); ok {
			kill(func(f mirror) bool { return f.cell.Overlaps(cell) })
			facts = append(facts, mirror{reg, cell})
			out = append(out, in)
			continue
		}
		// Generic instruction: its definition invalidates mirrors of the
		// written register/cells.
		def := in.Def()
		kill(func(f mirror) bool {
			return f.reg == def.Storage || f.cell.Overlaps(def)
		})
		out = append(out, in)
	}
	return out, removed
}

// removeDeadStores deletes stores overwritten by a later store to the same
// cell with no intervening (possible) read of that cell.
func removeDeadStores(instrs []*code.Instr) ([]*code.Instr, int) {
	removed := 0
	keep := make([]bool, len(instrs))
	// overwritten maps cells that will be stored again before any read.
	type cellKey struct {
		storage string
		addr    int64
	}
	overwritten := make(map[cellKey]bool)

	for i := len(instrs) - 1; i >= 0; i-- {
		in := instrs[i]
		keep[i] = true
		if _, cell, ok := storeOf(in); ok {
			key := cellKey{cell.Storage, cell.Addr}
			if overwritten[key] {
				keep[i] = false
				removed++
				continue
			}
			overwritten[key] = true
			// The store reads its source register, not memory; reads of
			// the destination cell are not implied.
			continue
		}
		// Any read of a cell clears its overwritten status; unknown
		// addresses clear the whole storage.
		for _, u := range in.Uses() {
			if u.AddrKnown {
				delete(overwritten, cellKey{u.Storage, u.Addr})
			} else {
				for k := range overwritten {
					if k.storage == u.Storage {
						delete(overwritten, k)
					}
				}
			}
		}
		// A non-store write with unknown address also invalidates.
		def := in.Def()
		if !def.AddrKnown {
			for k := range overwritten {
				if k.storage == def.Storage {
					delete(overwritten, k)
				}
			}
		} else if def.Storage != "" {
			// A full overwrite by a non-store instruction (e.g. a
			// register write) does not make earlier *memory* stores dead,
			// so only memory-destination instructions matter; those are
			// handled by storeOf above or by generic templates writing
			// memory, which count as overwrites only when plain stores.
			// Be conservative: a generic memory write with known address
			// clears the flag (we cannot prove the earlier store dead
			// against a non-move write... it actually overwrites too, but
			// conservatism costs only a kept store).
			if in.Template.DestAddr != rtl.NoExpr {
				delete(overwritten, cellKey{def.Storage, def.Addr})
			}
		}
	}
	var out []*code.Instr
	for i, in := range instrs {
		if keep[i] {
			out = append(out, in)
		}
	}
	return out, removed
}
