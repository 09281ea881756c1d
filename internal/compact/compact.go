// Package compact implements code compaction (paper section 3.2, citing
// the authors' time-constrained compaction work [17]): the sequential RT
// instructions produced by code selection are packed into horizontal
// instruction words, exploiting the instruction-level parallelism the
// encoding permits.
//
// An RT may move into an earlier word when (a) data dependences allow it —
// read-after-write and write-after-write predecessors must be in strictly
// earlier words, write-after-read predecessors in the same word or earlier
// (time-stationary RTs read cycle-start values) — and (b) the combined
// word remains encodable: execution conditions conjoin satisfiably,
// operand fields do not clash, and all untouched storages stay quiescent.
// The encoder provides exactly that feasibility test, so compaction and
// encoding can never disagree.
//
// Compact finds an RT's earliest word from two tables of the latest word
// that wrote and read each location, one lookup per location the RT
// touches.  Verify shares nothing with those tables: it checks that each
// RT of the sequence is placed exactly once and nothing else is placed,
// that each word is encodable, and every dependence pair by the pairwise
// definition (code.RAW, WAW, WAR).
package compact

import (
	"fmt"
	"slices"

	"repro/internal/code"
	"repro/internal/obs"
)

// Options tunes compaction.
type Options struct {
	// Disable turns compaction off: one RT per word (the ablation
	// baseline).
	Disable bool
	// Obs receives compaction instruments (instructions in, words out);
	// nil is safe.
	Obs *obs.Scope
}

// record lands the compaction ratio in the registry; the instruction and
// word totals together give the paper's table 4 packing factor.
func record(scope *obs.Scope, seq *code.Seq, p *code.Program) {
	reg := scope.Registry()
	if reg == nil {
		return
	}
	reg.Counter("record_compact_instrs_total",
		"sequential RT instructions fed to compaction").Add(len(seq.Instrs))
	reg.Counter("record_compact_words_total",
		"instruction words emitted by compaction").Add(len(p.Words))
}

// Feasibility is the encodability test compaction schedules against —
// satisfied by *asm.Encoder and, for concurrent compiles against a frozen
// target, by *asm.Session.
type Feasibility interface {
	Feasible([]*code.Instr) bool
}

// Compact packs a sequential RT list into instruction words using greedy
// earliest-fit list scheduling.
func Compact(seq *code.Seq, enc Feasibility, opts Options) (*code.Program, error) {
	p := &code.Program{}
	// Every word opened is carved from one array of at most one word per
	// RT, and its first RT from another; each word's RT slice has
	// capacity 1, so the second RT placed in it reallocates.
	words, firsts := make([]code.Word, len(seq.Instrs)), make([]*code.Instr, len(seq.Instrs))
	open := func(in *code.Instr) {
		k := len(p.Words)
		firsts[k] = in
		words[k].Instrs = firsts[k : k+1 : k+1]
		p.Words = append(p.Words, &words[k])
	}
	if opts.Disable {
		for _, in := range seq.Instrs {
			if !enc.Feasible([]*code.Instr{in}) {
				return nil, fmt.Errorf("compact: instruction %s not encodable alone", in)
			}
			open(in)
		}
		record(opts.Obs, seq, p)
		return p, nil
	}

	defs, uses := locWords{}, locWords{} // latest word of earlier writes and reads
	var trial []*code.Instr              // placement-probe scratch, reused across trials
	for _, in := range seq.Instrs {
		def := in.Def()
		// WAW and RAW predecessors force a strictly later word, WAR ones
		// at least the same word.
		earliest := max(defs.latest(def)+1, uses.latest(def))
		for _, u := range in.Uses() {
			earliest = max(earliest, defs.latest(u)+1)
		}
		placed := -1
		for w := earliest; w < len(p.Words); w++ {
			trial = append(trial[:0], p.Words[w].Instrs...)
			trial = append(trial, in)
			if enc.Feasible(trial) {
				p.Words[w].Instrs = append(p.Words[w].Instrs, in)
				placed = w
				break
			}
		}
		if placed < 0 {
			if !enc.Feasible(append(trial[:0], in)) {
				return nil, fmt.Errorf("compact: instruction %s not encodable alone", in)
			}
			open(in)
			placed = len(p.Words) - 1
		}
		defs.add(def, placed)
		for _, u := range in.Uses() {
			uses.add(u, placed)
		}
	}
	record(opts.Obs, seq, p)
	return p, nil
}

// locWords records the latest word that holds an access to each storage
// location (one table for writes, one for reads).  A query answers exactly
// what code.Loc.Overlaps would over every recorded access: same storage,
// and addresses equal or either one unknown.  A compile touches few
// storages, so they sit in a slice searched by name.
type locWords []storageWords

// storageWords is one storage's entry in a locWords table.
type storageWords struct {
	name    string
	addr    map[int64]int // per known address, made on the first one
	unknown int           // accesses whose address is unknown
	any     int           // every access to the storage
}

// find returns the entry of storage name, or nil.
func (t locWords) find(name string) *storageWords {
	for i := range t {
		if t[i].name == name {
			return &t[i]
		}
	}
	return nil
}

// latest returns the latest word holding an access that overlaps l, or -1.
func (t locWords) latest(l code.Loc) int {
	s := t.find(l.Storage)
	if s == nil {
		return -1
	}
	if !l.AddrKnown {
		return s.any
	}
	if w, ok := s.addr[l.Addr]; ok {
		return max(w, s.unknown)
	}
	return s.unknown
}

// add records an access to l in word w.
func (t *locWords) add(l code.Loc, w int) {
	s := t.find(l.Storage)
	if s == nil {
		*t = append(*t, storageWords{name: l.Storage, unknown: -1, any: -1})
		s = &(*t)[len(*t)-1]
	}
	s.any = max(s.any, w)
	if !l.AddrKnown {
		s.unknown = max(s.unknown, w)
		return
	}
	if s.addr == nil {
		s.addr = map[int64]int{}
	}
	if prev, ok := s.addr[l.Addr]; !ok || w > prev {
		s.addr[l.Addr] = w
	}
}

// Verify checks a compacted program against its sequence: every RT of the
// sequence is placed exactly once and nothing else is placed, every word
// is encodable, and every pair of RTs keeps its dependences — read-after-
// write and write-after-write successors in a strictly later word,
// write-after-read successors in the same word or later.  The dependence
// check is the pairwise definition (code.RAW, WAW, WAR), independent of
// the tables Compact schedules with.  It is used by tests and as a safety
// net after compaction.
func Verify(seq *code.Seq, p *code.Program, enc Feasibility) error {
	pos := make(map[*code.Instr]int, len(seq.Instrs))
	for i, in := range seq.Instrs {
		pos[in] = i
	}
	wordOf := make([]int, len(seq.Instrs)) // by sequence position
	for i := range wordOf {
		wordOf[i] = -1
	}
	for w, word := range p.Words {
		for _, in := range word.Instrs {
			i, ok := pos[in]
			if !ok {
				return fmt.Errorf("compact: word %d holds %s, which is not in the sequence", w, in)
			}
			if wordOf[i] >= 0 {
				return fmt.Errorf("compact: %s placed twice (words %d, %d)", in, wordOf[i], w)
			}
			wordOf[i] = w
		}
		if !enc.Feasible(word.Instrs) {
			return fmt.Errorf("compact: word %d not encodable", w)
		}
	}
	for i, w := range wordOf {
		if w < 0 {
			return fmt.Errorf("compact: instruction %d (%s) not placed", i, seq.Instrs[i])
		}
	}
	// minFrom[j] is the earliest word of the RTs from position j on: once
	// it passes a's word, no later RT can break a dependence on a.
	minFrom := slices.Clone(wordOf)
	for j := len(minFrom) - 2; j >= 0; j-- {
		minFrom[j] = min(minFrom[j], minFrom[j+1])
	}
	for i, a := range seq.Instrs {
		wa := wordOf[i]
		for j := i + 1; j < len(seq.Instrs) && minFrom[j] <= wa; j++ {
			wb := wordOf[j]
			if wb > wa {
				continue // a strictly later word satisfies every dependence kind
			}
			b := seq.Instrs[j]
			if code.RAW(a, b) {
				return fmt.Errorf("compact: read-after-write dependence %s -> %s violated (words %d, %d)", a, b, wa, wb)
			}
			if code.WAW(a, b) {
				return fmt.Errorf("compact: write-after-write dependence %s -> %s violated (words %d, %d)", a, b, wa, wb)
			}
			if code.WAR(a, b) && wb < wa {
				return fmt.Errorf("compact: write-after-read dependence %s -> %s violated (words %d, %d)", a, b, wa, wb)
			}
		}
	}
	return nil
}
