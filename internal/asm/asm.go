// Package asm encodes instruction words from RT execution conditions.
//
// The execution condition of each selected RT instance constrains the
// instruction-word bits (a BDD from instruction-set extraction); operand
// fields pin further bits.  Encoding a word conjoins everything, adds
// quiescence constraints — every storage not deliberately written this
// cycle must have all of its (suppressible) write conditions false, so a
// data word cannot accidentally trigger a store or a jump — and picks a
// satisfying assignment of the instruction bits.  Conditions over
// mode-register bits become mode-state requirements recorded per word.
package asm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bdd"
	"repro/internal/code"
	"repro/internal/ise"
	"repro/internal/obs"
	"repro/internal/rtl"
)

// Encoder encodes instruction words for one extracted machine.
//
// A fresh Encoder cannot encode yet: Freeze bakes the encoding tables and
// freezes the manager, after which the Encoder is immutable and any
// number of Sessions may encode concurrently.
type Encoder struct {
	Vars *ise.VarMap
	Base *rtl.Base

	m *bdd.Manager
	// quiesce maps a storage to the disjunction of the static conditions
	// of its suppressible write templates.
	quiesce     map[string]bdd.Node
	storageList []string   // sorted quiesce keys
	notQuiesce  []bdd.Node // ¬quiesce[storageList[i]]
	// quiet is the conjunction of all negated quiesce conditions (the NOP
	// condition).
	quiet bdd.Node

	// Baked at Freeze time; read-only afterwards.
	byVar []int // instruction bit positions in ascending variable order
	// nop is the baked quiescent instruction word; nopErr records a
	// machine without one.
	nop    uint64
	nopErr error
}

// NewEncoder analyses the template base and builds the quiescence
// conditions and their negations in sorted storage order.  background
// lists storages that are written every cycle by design (the program
// counter behind a next-PC multiplexer): they are exempt from quiescence,
// and their unconstrained control bits default to 0 — models must make
// the all-zero selection the benign one (PC+1).
func NewEncoder(vars *ise.VarMap, base *rtl.Base, background ...string) *Encoder {
	e := &Encoder{Vars: vars, Base: base, m: vars.M,
		quiesce: make(map[string]bdd.Node)}
	bg := make(map[string]bool, len(background))
	for _, s := range background {
		bg[s] = true
	}
	for _, t := range base.Templates {
		if t.DestPort || bg[t.Dest] {
			continue // port drives / background storages are not suppressed
		}
		if e.m.Tautology(t.Cond.Static) {
			// Unconditional background behavior (e.g. the PC increment)
			// cannot be suppressed; it is part of the machine semantics.
			continue
		}
		prev, ok := e.quiesce[t.Dest]
		if !ok {
			prev = e.m.False()
		}
		e.quiesce[t.Dest] = e.m.Or(prev, t.Cond.Static)
	}
	for s := range e.quiesce {
		e.storageList = append(e.storageList, s)
	}
	sort.Strings(e.storageList)
	e.quiet = e.m.True()
	for _, s := range e.storageList {
		nq := e.m.Not(e.quiesce[s])
		e.notQuiesce = append(e.notQuiesce, nq)
		e.quiet = e.m.And(e.quiet, nq)
	}
	return e
}

// ModeReq is a required mode-register state: storage name → bit values.
type ModeReq map[string]int64

// Freeze bakes the read-only encoding tables (the instruction bits in
// variable order, the NOP word) and freezes the BDD manager; it builds no
// word condition.  After Freeze the Encoder never mutates shared state:
// every residual BDD operation a Session performs runs through a private
// copy-on-write view, so any number of Sessions may encode concurrently.
// Freeze is idempotent and must be the last manager-mutating step of a
// retarget.
func (e *Encoder) Freeze() {
	if e.m.Frozen() {
		return
	}
	e.byVar = make([]int, e.Vars.InsnWidth())
	for i := range e.byVar {
		e.byVar[i] = i
	}
	slices.SortFunc(e.byVar, func(a, b int) int { return cmp.Compare(e.Vars.InsnVars[a], e.Vars.InsnVars[b]) })
	e.nop, e.nopErr = e.nopWord()
	e.m.Freeze()
}

// Frozen reports whether Freeze has run.
func (e *Encoder) Frozen() bool { return e.m.Frozen() }

// Session is one encoding session against the frozen encoder.  Sessions
// are independent and may run concurrently; one Session must not be
// shared between goroutines.  The session's view accumulates nodes and
// cached operations across words, so one compilation should use one session.
// Sessions may also be pooled and reused across sequential compilations:
// results stay byte-identical because BDD canonicity makes every
// condition independent of what the view cached earlier, and
// OverlaySize bounds how much memory a pooled session retains.
type Session struct {
	e   *Encoder
	ops *bdd.View // private copy-on-write overlay on the frozen manager

	// singles[id] is 1 + setCond of one RT of template id (0: not built;
	// nsingles counts the built), sets that of a larger set keyed by its
	// sorted template IDs; ids and key are the scratch its lookups build.
	singles  []bdd.Node
	nsingles int
	sets     map[string]bdd.Node
	ids      []uint64
	key      []byte
	// lits is scratch for operand-field literals, reused across words so
	// the per-word cube costs no fresh slice.
	lits []bdd.Lit

	// Session-local instruments (see NewSessionObs); nil discards.
	cFeas  *obs.Counter
	cWords *obs.Counter
}

// NewSession opens an encoding session with a private view of the frozen
// manager.  It panics with a bdd.InvariantError before Freeze.
func (e *Encoder) NewSession() *Session {
	return &Session{e: e, ops: e.m.NewView(), sets: make(map[string]bdd.Node),
		singles: make([]bdd.Node, e.Base.Len())}
}

// NewSessionObs opens an encoding session with instrumentation: every
// feasibility probe (compaction scheduling trials included) and every
// successfully encoded word is counted in the scope's registry.  The
// counters are process-wide totals shared by all sessions of the
// registry; a nil scope yields an uninstrumented session.
func (e *Encoder) NewSessionObs(scope *obs.Scope) *Session {
	s := e.NewSession()
	if reg := scope.Registry(); reg != nil {
		s.cFeas = reg.Counter("record_asm_feasibility_checks_total",
			"instruction-word feasibility probes (compaction trials and encoding)")
		s.cWords = reg.Counter("record_asm_words_encoded_total",
			"instruction words successfully encoded")
	}
	return s
}

// setCond returns the condition of the template set of instrs: the
// conjunction of their static conditions and the quiescence of every
// storage none of them writes.  Each set, a single RT included, is built
// on its first use in the session and memoised, a single RT under its
// template ID and a larger set under its sorted template IDs: a compile
// uses few distinct sets, and compaction probes them many times.  Operand
// fields are not part of it (see pins).
func (s *Session) setCond(instrs []*code.Instr) bdd.Node {
	if len(instrs) == 1 {
		memo := &s.singles[instrs[0].Template.ID]
		if *memo == 0 {
			*memo = 1 + s.build(instrs)
			s.nsingles++
		}
		return *memo - 1
	}
	s.ids = s.ids[:0]
	for _, in := range instrs {
		s.ids = append(s.ids, uint64(in.Template.ID))
	}
	slices.Sort(s.ids)
	s.key = s.key[:0]
	for _, id := range s.ids {
		s.key = binary.AppendUvarint(s.key, id)
	}
	if c, ok := s.sets[string(s.key)]; ok {
		return c
	}
	c := s.build(instrs)
	s.sets[string(s.key)] = c
	return c
}

// build conjoins the static conditions of instrs and the quiescence of
// every storage none of them writes.
func (s *Session) build(instrs []*code.Instr) bdd.Node {
	c := s.statics(instrs)
	for i, st := range s.e.storageList {
		if c == s.ops.False() {
			break
		}
		if !writes(instrs, st) {
			c = s.ops.And(c, s.e.notQuiesce[i])
		}
	}
	return c
}

// statics conjoins the static execution conditions of instrs.
func (s *Session) statics(instrs []*code.Instr) bdd.Node {
	c := s.ops.True()
	for _, in := range instrs {
		c = s.ops.And(c, in.Template.Cond.Static)
	}
	return c
}

// writes reports whether one of instrs writes storage st on purpose.
func writes(instrs []*code.Instr, st string) bool {
	for _, in := range instrs {
		if !in.Template.DestPort && in.Template.Dest == st {
			return true
		}
	}
	return false
}

// pins folds the operand fields of instrs into the instruction bits they
// pin (mask) and the values they pin them to (val); instruction words are
// at most 64 bits wide.  clash holds the bits two fields pin to different
// values, and wide is the first field that reaches past the instruction
// width (nil if none).
func (e *Encoder) pins(instrs []*code.Instr) (mask, val, clash uint64, wide *code.Field) {
	width := e.Vars.InsnWidth()
	for _, in := range instrs {
		for i := range in.Fields {
			f := &in.Fields[i]
			w := f.Hi - f.Lo + 1
			if w <= 0 {
				continue
			}
			if f.Hi >= width {
				return mask, val, clash, f
			}
			fm := ^uint64(0) >> (64 - w) << f.Lo
			fv := uint64(f.Val) << f.Lo & fm
			clash |= mask & fm & (val ^ fv)
			mask, val = mask|fm, val|fv&^mask
		}
	}
	return mask, val, clash, nil
}

// lits appends the pinned bits to out as literals in ascending variable
// order, CubeLits' form.
func (e *Encoder) lits(mask, val uint64, out []bdd.Lit) []bdd.Lit {
	for _, pos := range e.byVar {
		if mask == 0 {
			break
		}
		if bit := uint64(1) << pos; mask&bit != 0 {
			out = append(out, bdd.Lit{Var: e.Vars.InsnVars[pos], Val: val&bit != 0})
			mask &^= bit
		}
	}
	return out
}

// Feasible reports whether the instruction set can execute in one word:
// its template set's condition holds together with its operand fields.
// It builds no BDD node and no error.
func (s *Session) Feasible(instrs []*code.Instr) bool {
	s.cFeas.Inc()
	mask, val, clash, wide := s.e.pins(instrs)
	if clash != 0 || wide != nil {
		return false
	}
	c := s.setCond(instrs)
	if c == s.ops.False() {
		return false
	}
	s.lits = s.e.lits(mask, val, s.lits[:0])
	return s.ops.SatUnder(c, s.lits)
}

// Encode picks a concrete instruction word (and required mode state)
// satisfying the word condition.  Unconstrained bits default to 0.  It
// builds the conjunction of the set condition and the field cube, so the
// word and the mode state come from the one satisfying path that
// conjunction has.
func (s *Session) Encode(instrs []*code.Instr) (word uint64, mode ModeReq, err error) {
	e := s.e
	mask, val, clash, wide := e.pins(instrs)
	if clash != 0 || wide != nil {
		return 0, nil, s.encodeErr(instrs)
	}
	s.lits = e.lits(mask, val, s.lits[:0])
	cond := s.ops.And(s.setCond(instrs), s.ops.CubeLits(s.lits))
	if cond == s.ops.False() {
		return 0, nil, s.encodeErr(instrs)
	}
	// Walk the satisfying path directly: no assignment map, and the mode
	// map (empty for almost every word) is allocated only when a mode
	// variable actually appears on the path.
	ok := s.ops.AnySatWalk(cond, func(v int, val bool) {
		if bit, isInsn := e.Vars.IsInsnVar(v); isInsn {
			if val {
				word |= 1 << uint(bit)
			}
			return
		}
		if storage, bit := e.Vars.ModeVarOwner(v); storage != "" {
			if mode == nil {
				mode = make(ModeReq)
			}
			if val {
				mode[storage] |= 1 << uint(bit)
			} else {
				mode[storage] |= 0
			}
		}
	})
	if !ok {
		return 0, nil, fmt.Errorf("asm: unsatisfiable word condition")
	}
	s.cWords.Inc()
	return word, mode, nil
}

// encodeErr explains why instrs cannot share a word, checking in a fixed
// order: the static conditions, the fields' width and agreement, the
// fields against the conditions, then quiescence storage by storage.  A
// single RT whose set condition is satisfiable checks its fields against
// that condition, which already includes quiescence.
func (s *Session) encodeErr(instrs []*code.Instr) error {
	e := s.e
	mask, val, clash, wide := e.pins(instrs)
	c := s.ops.False()
	if len(instrs) == 1 {
		c = s.setCond(instrs)
	}
	solo := c != s.ops.False()
	if !solo {
		if c = s.statics(instrs); c == s.ops.False() {
			return fmt.Errorf("asm: conflicting execution conditions (instruction encoding conflict)")
		}
	}
	if wide != nil {
		return fmt.Errorf("asm: field %s exceeds instruction width %d", *wide, e.Vars.InsnWidth())
	}
	if clash != 0 {
		bit, _ := e.Vars.IsInsnVar(e.lits(clash, 0, nil)[0].Var)
		return fmt.Errorf("asm: operand fields conflict at instruction bit %d", bit)
	}
	if c = s.ops.And(c, s.ops.CubeLits(e.lits(mask, val, nil))); c == s.ops.False() {
		return fmt.Errorf("asm: operand fields contradict execution conditions")
	}
	for i, st := range e.storageList {
		if solo || writes(instrs, st) {
			continue
		}
		if c = s.ops.And(c, e.notQuiesce[i]); c == s.ops.False() {
			return fmt.Errorf("asm: cannot encode word without disturbing %s", st)
		}
	}
	return fmt.Errorf("asm: unsatisfiable word condition")
}

// NOP returns an instruction word that changes no suppressible storage.
func (s *Session) NOP() (uint64, error) {
	return s.e.nop, s.e.nopErr
}

// nopWord picks a quiescent word from the quiet condition (read-only).
func (e *Encoder) nopWord() (word uint64, err error) {
	if !e.m.AnySatWalk(e.quiet, func(v int, val bool) {
		if bit, isInsn := e.Vars.IsInsnVar(v); isInsn && val {
			word |= 1 << uint(bit)
		}
	}) {
		return 0, fmt.Errorf("asm: machine has no quiescent encoding (NOP impossible)")
	}
	return word, nil
}

// EncodeProgram fills in Bits for every word and verifies that the mode
// requirements of all words are mutually consistent (the program never
// needs two different states of one mode register without an intervening
// mode change, which this straight-line encoder does not insert).
func (s *Session) EncodeProgram(p *code.Program) (ModeReq, error) {
	var required ModeReq // lazily allocated: most programs need no mode state
	for i, w := range p.Words {
		bits, mode, err := s.Encode(w.Instrs)
		if err != nil {
			return nil, fmt.Errorf("asm: word %d: %w", i, err)
		}
		w.Bits = bits
		w.Encoded = true
		for st, v := range mode {
			if prev, ok := required[st]; ok && prev != v {
				return nil, fmt.Errorf("asm: word %d needs mode %s=%d but an earlier word needs %d",
					i, st, v, prev)
			}
			if required == nil {
				required = make(ModeReq)
			}
			required[st] = v
		}
	}
	return required, nil
}

// OverlaySize returns the number of private BDD entries (overlay nodes and
// filled cache entries) the session's view has accumulated, plus its
// memoised template-set conditions.  Session pools
// use it to decide whether a returned session is still cheap enough to
// reuse.
func (s *Session) OverlaySize() int {
	return s.ops.OverlaySize() + s.nsingles + len(s.sets)
}

// Listing renders an encoded program as an annotated listing: per word,
// its index (four digits), its bits in zero-padded hex, its RTs joined by
// " || " and their comments.
func (e *Encoder) Listing(p *code.Program) string {
	var b strings.Builder
	width := (e.Vars.InsnWidth() + 3) / 4
	var num [20]byte
	for i, w := range p.Words {
		zeroPad(&b, strconv.AppendInt(num[:0], int64(i), 10), 4)
		b.WriteString("  ")
		zeroPad(&b, strconv.AppendUint(num[:0], w.Bits, 16), width)
		b.WriteString("  ")
		for j, in := range w.Instrs {
			if j > 0 {
				b.WriteString(" || ")
			}
			in.Render(&b)
		}
		for _, in := range w.Instrs {
			if in.Comment != "" {
				b.WriteString("  ; ")
				b.WriteString(in.Comment)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// zeroPad writes digits left-padded with zeros to width.
func zeroPad(b *strings.Builder, digits []byte, width int) {
	for n := len(digits); n < width; n++ {
		b.WriteByte('0')
	}
	b.Write(digits)
}
