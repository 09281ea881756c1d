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
// A fresh Encoder cannot encode yet: Freeze bakes the per-template
// encoding tables and freezes the manager, after which the Encoder is
// immutable and any number of Sessions may encode concurrently.
type Encoder struct {
	Vars *ise.VarMap
	Base *rtl.Base

	m *bdd.Manager
	// quiesce maps a storage to the disjunction of the static conditions
	// of its suppressible write templates.
	quiesce map[string]bdd.Node
	// quiet is the conjunction of all negated quiesce conditions (the NOP
	// condition).
	quiet bdd.Node

	// Baked at Freeze time; read-only afterwards.
	frozen      bool
	storageList []string   // sorted quiesce keys
	notQuiesce  []bdd.Node // ¬quiesce[storageList[i]]
	// solo[t] is t's full single-instruction word condition: its static
	// execution condition conjoined with quiescence of every other
	// suppressible storage.  Encoding the common case (one RT per word,
	// and every word under -no-compaction) is then one cube conjunction
	// and a satisfiability walk — no shared-state mutation at all.
	solo map[*rtl.Template]bdd.Node
	// nop is the baked quiescent instruction word; nopErr records a
	// machine without one.
	nop    uint64
	nopErr error
}

// NewEncoder analyses the template base and builds the quiescence
// conditions.  background lists storages that are written every cycle by
// design (the program counter behind a next-PC multiplexer): they are
// exempt from quiescence, and their unconstrained control bits default to
// 0 — models must make the all-zero selection the benign one (PC+1).
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
	e.quiet = e.m.True()
	for _, s := range e.storages() {
		e.quiet = e.m.And(e.quiet, e.m.Not(e.quiesce[s]))
	}
	return e
}

func (e *Encoder) storages() []string {
	out := make([]string, 0, len(e.quiesce))
	for s := range e.quiesce {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ModeReq is a required mode-register state: storage name → bit values.
type ModeReq map[string]int64

// Freeze bakes the read-only encoding tables — per-template solo word
// conditions, negated quiescence conditions in sorted storage order, the
// NOP word — and freezes the BDD manager.  After Freeze the Encoder never
// mutates shared state: every residual BDD operation a Session performs
// runs through a private copy-on-write view, so any number of Sessions
// may encode concurrently.  Freeze is idempotent and must be the last
// manager-mutating step of a retarget.
func (e *Encoder) Freeze() {
	if e.frozen {
		return
	}
	e.storageList = e.storages()
	e.notQuiesce = make([]bdd.Node, len(e.storageList))
	for i, s := range e.storageList {
		e.notQuiesce[i] = e.m.Not(e.quiesce[s])
	}
	// quietBut[i] is the quiescence of every storage except storageList[i],
	// from prefix and suffix products: O(storages) Ands instead of one per
	// (template, storage) pair.  Each template then costs a single And;
	// ROBDD canonicity makes the result the node the storage-by-storage
	// conjunction would reach.
	n := len(e.storageList)
	quietBut := make([]bdd.Node, n)
	prefix := e.m.True()
	for i := range n {
		quietBut[i] = prefix
		prefix = e.m.And(prefix, e.notQuiesce[i])
	}
	suffix := e.m.True()
	for i := n - 1; i >= 0; i-- {
		quietBut[i] = e.m.And(quietBut[i], suffix)
		suffix = e.m.And(suffix, e.notQuiesce[i])
	}
	e.solo = make(map[*rtl.Template]bdd.Node, e.Base.Len())
	for _, t := range e.Base.Templates {
		q := e.quiet
		if i := sort.SearchStrings(e.storageList, t.Dest); !t.DestPort && i < n && e.storageList[i] == t.Dest {
			q = quietBut[i]
		}
		e.solo[t] = e.m.And(t.Cond.Static, q)
	}
	e.nop, e.nopErr = e.nopWord()
	e.frozen = true
	e.m.Freeze()
}

// Frozen reports whether Freeze has run.
func (e *Encoder) Frozen() bool { return e.frozen }

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

	// lits is scratch for operand-field literal collection, reused across
	// words so the per-word cube costs no map and no fresh slice.
	lits []bdd.Lit
	// intended is scratch for the storages a multi-RT word writes on
	// purpose, reused across feasibility probes.
	intended []string

	// Session-local instruments (see NewSessionObs); nil discards.
	cFeas  *obs.Counter
	cWords *obs.Counter
}

// NewSession opens an encoding session with a private view of the frozen
// manager.  It panics with a bdd.InvariantError before Freeze.
func (e *Encoder) NewSession() *Session {
	return &Session{e: e, ops: e.m.NewView()}
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

// WordCond computes the full encoding condition of a set of parallel RT
// instances: conjunction of their static conditions, their operand-field
// bit cubes, and quiescence of every untouched storage.
func (s *Session) WordCond(instrs []*code.Instr) (bdd.Node, error) {
	e := s.e
	var c bdd.Node
	solo := false
	if len(instrs) == 1 {
		// Baked fast path: the solo condition already conjoins the static
		// condition with quiescence of every other storage.  A false solo
		// condition falls through to the slow path for a precise error.
		c, solo = e.solo[instrs[0].Template]
		solo = solo && c != e.m.False()
	}
	if !solo {
		c = s.ops.True()
		s.intended = s.intended[:0]
		for _, in := range instrs {
			c = s.ops.And(c, in.Template.Cond.Static)
			if !in.Template.DestPort {
				s.intended = append(s.intended, in.Template.Dest)
			}
		}
		if c == s.ops.False() {
			return c, fmt.Errorf("asm: conflicting execution conditions (instruction encoding conflict)")
		}
	}
	lits, err := s.fieldLits(instrs)
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
	// Quiescence for untouched storages, in sorted storage order.
	for i, st := range e.storageList {
		if slices.Contains(s.intended, st) {
			continue
		}
		c = s.ops.And(c, e.notQuiesce[i])
		if c == s.ops.False() {
			return c, fmt.Errorf("asm: cannot encode word without disturbing %s", st)
		}
	}
	return c, nil
}

// fieldLits collects the instruction bits pinned by operand fields as a
// sorted, deduplicated literal slice.  The result aliases the session's
// scratch buffer and is valid until the next fieldLits call; this keeps
// the hottest per-word allocation (formerly a map) off the compile path.
func (s *Session) fieldLits(instrs []*code.Instr) ([]bdd.Lit, error) {
	e := s.e
	lits := s.lits[:0]
	for _, in := range instrs {
		for _, f := range in.Fields {
			w := f.Hi - f.Lo + 1
			for b := 0; b < w; b++ {
				pos := f.Lo + b
				if pos >= e.Vars.InsnWidth() {
					return nil, fmt.Errorf("asm: field %s exceeds instruction width %d", f, e.Vars.InsnWidth())
				}
				lits = append(lits, bdd.Lit{
					Var: e.Vars.InsnVars[pos],
					Val: f.Val&(1<<uint(b)) != 0,
				})
			}
		}
	}
	slices.SortFunc(lits, func(a, b bdd.Lit) int { return cmp.Compare(a.Var, b.Var) })
	// Collapse duplicate pins of one variable; disagreeing pins conflict.
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
	s.lits = lits
	return out, nil
}

// Encode picks a concrete instruction word (and required mode state)
// satisfying the word condition.  Unconstrained bits default to 0.
func (s *Session) Encode(instrs []*code.Instr) (word uint64, mode ModeReq, err error) {
	cond, err := s.WordCond(instrs)
	if err != nil {
		return 0, nil, err
	}
	e := s.e
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

// Feasible reports whether the instruction set can execute in one word.
func (s *Session) Feasible(instrs []*code.Instr) bool {
	s.cFeas.Inc()
	_, err := s.WordCond(instrs)
	return err == nil
}

// NOP returns an instruction word that changes no suppressible storage.
func (s *Session) NOP() (uint64, error) {
	return s.e.nop, s.e.nopErr
}

// nopWord picks a quiescent word from the quiet condition (read-only).
func (e *Encoder) nopWord() (uint64, error) {
	assign, ok := e.m.AnySat(e.quiet)
	if !ok {
		return 0, fmt.Errorf("asm: machine has no quiescent encoding (NOP impossible)")
	}
	var word uint64
	for v, val := range assign {
		if bit, isInsn := e.Vars.IsInsnVar(v); isInsn && val {
			word |= 1 << uint(bit)
		}
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
// filled cache entries) the session's view has accumulated.  Session pools
// use it to decide whether a returned session is still cheap enough to
// reuse.
func (s *Session) OverlaySize() int {
	return s.ops.OverlaySize()
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
