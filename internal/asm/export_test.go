package asm

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bdd"
	"repro/internal/code"
)

// SetCond exposes the memoised template-set condition of instrs.
func (s *Session) SetCond(instrs []*code.Instr) bdd.Node { return s.setCond(instrs) }

// SetCount returns the number of template sets the session has memoised,
// single RTs included.
func (s *Session) SetCount() int { return s.nsingles + len(s.sets) }

// ViewSize returns the private entries of the session's BDD view alone.
func (s *Session) ViewSize() int { return s.ops.OverlaySize() }

// RefSetCond builds the condition setCond memoises afresh through the
// session's view: the static conditions of instrs and the negated
// quiescence condition of every storage none of them writes.
func (s *Session) RefSetCond(instrs []*code.Instr) bdd.Node {
	c := s.ops.True()
	for _, in := range instrs {
		c = s.ops.And(c, in.Template.Cond.Static)
	}
	for _, st := range s.e.storageList {
		if !slices.ContainsFunc(instrs, func(in *code.Instr) bool {
			return !in.Template.DestPort && in.Template.Dest == st
		}) {
			c = s.ops.And(c, s.ops.Not(s.e.quiesce[st]))
		}
	}
	return c
}

// RefWordCond is the reference word condition, built the way the encoder
// built every probe before the template-set memo: the static conditions,
// the sorted operand-field cube and the quiescence of every untouched
// storage, conjoined in that order with an error at the first conjunct
// that makes the word unencodable.  A single RT whose fresh set condition
// (RefSetCond) is satisfiable starts from that condition instead, which
// already includes quiescence.
func (s *Session) RefWordCond(instrs []*code.Instr) (bdd.Node, error) {
	e := s.e
	var c bdd.Node
	solo := false
	if len(instrs) == 1 {
		c = s.RefSetCond(instrs)
		solo = c != s.ops.False()
	}
	var intended []string
	if !solo {
		c = s.ops.True()
		for _, in := range instrs {
			c = s.ops.And(c, in.Template.Cond.Static)
			if !in.Template.DestPort {
				intended = append(intended, in.Template.Dest)
			}
		}
		if c == s.ops.False() {
			return c, fmt.Errorf("asm: conflicting execution conditions (instruction encoding conflict)")
		}
	}
	lits, err := s.refFieldLits(instrs)
	if err != nil {
		return s.ops.False(), err
	}
	c = s.ops.And(c, s.ops.CubeLits(lits))
	if c == s.ops.False() {
		return c, fmt.Errorf("asm: operand fields contradict execution conditions")
	}
	if solo {
		return c, nil
	}
	for i, st := range e.storageList {
		if slices.Contains(intended, st) {
			continue
		}
		c = s.ops.And(c, e.notQuiesce[i])
		if c == s.ops.False() {
			return c, fmt.Errorf("asm: cannot encode word without disturbing %s", st)
		}
	}
	return c, nil
}

// refFieldLits collects the instruction bits pinned by operand fields as
// a sorted, deduplicated literal slice.
func (s *Session) refFieldLits(instrs []*code.Instr) ([]bdd.Lit, error) {
	e := s.e
	var lits []bdd.Lit
	for _, in := range instrs {
		for _, f := range in.Fields {
			for b := 0; b < f.Hi-f.Lo+1; b++ {
				pos := f.Lo + b
				if pos >= e.Vars.InsnWidth() {
					return nil, fmt.Errorf("asm: field %s exceeds instruction width %d", f, e.Vars.InsnWidth())
				}
				lits = append(lits, bdd.Lit{Var: e.Vars.InsnVars[pos], Val: f.Val&(1<<uint(b)) != 0})
			}
		}
	}
	slices.SortFunc(lits, func(a, b bdd.Lit) int { return cmp.Compare(a.Var, b.Var) })
	out := lits[:0]
	for i, l := range lits {
		if i > 0 && l.Var == out[len(out)-1].Var {
			if l.Val != out[len(out)-1].Val {
				bit, _ := e.Vars.IsInsnVar(l.Var)
				return nil, fmt.Errorf("asm: operand fields conflict at instruction bit %d", bit)
			}
			continue
		}
		out = append(out, l)
	}
	return out, nil
}
