// Package codegen drives code selection: it covers lowered expression
// trees with RT templates via the BURS tree parser, linearizes the optimal
// derivations into sequential RT instructions with concrete operand
// fields, orders operand evaluation to minimize special-purpose register
// conflicts (the Sethi-Ullman-flavored extension of Araujo/Malik the paper
// cites in section 3.2), and inserts memory spills when a register value
// cannot survive a sibling computation.
package codegen

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bind"
	"repro/internal/burs"
	"repro/internal/code"
	"repro/internal/grammar"
	"repro/internal/rtl"
	"repro/internal/slab"
)

// Generator compiles ETs for one retargeted machine.  It keeps its
// working memory from compile to compile: the labels of the binding's
// subject store, the code of the tree being compiled and the split
// candidates.  The instructions it emits and their operand fields are
// carved from slabs the compile's result keeps, so Reset starts new ones.
type Generator struct {
	G *grammar.Grammar
	P *burs.Parser
	B *bind.Binding

	labels *burs.Labels
	// out is the code of the top-level tree being compiled: every step
	// appends to it, and a failed attempt truncates it back.
	out []*code.Instr
	// fields holds one match's operand fields until keep copies them.
	fields []code.Field
	// subs holds the split candidates of every splitting level in
	// progress, innermost last.
	subs   []candidate
	instrs slab.Slab[code.Instr]
	kept   slab.Slab[code.Field]

	scratchFree []int
	// Stats accumulates selection metrics across Compile calls.
	Stats Stats
}

// Stats reports code-selection effort and quality.
type Stats struct {
	Trees      int // expression trees compiled
	Instrs     int // RT instructions emitted
	Spills     int // spill store/reload pairs inserted
	SelectCost int // accumulated optimal cover cost
}

// New builds a generator from the grammar, its parser and the binding.
func New(g *grammar.Grammar, p *burs.Parser, b *bind.Binding) *Generator {
	cg := &Generator{G: g, P: p, labels: p.NewLabels(b.Exprs())}
	cg.Reset(b)
	return cg
}

// Reset readies the generator to compile the trees of b, for the same
// grammar, keeping its working memory.
func (cg *Generator) Reset(b *bind.Binding) {
	cg.B, cg.Stats = b, Stats{}
	cg.labels.Reset(b.Exprs())
	cg.out, cg.subs = cg.out[:0], cg.subs[:0]
	cg.instrs, cg.kept = slab.Slab[code.Instr]{}, slab.Slab[code.Field]{}
	cg.scratchFree = cg.scratchFree[:0]
	for i := 0; i < b.ScratchLen; i++ {
		cg.scratchFree = append(cg.scratchFree, b.ScratchBase+i)
	}
}

// Compile covers every ET and returns the sequential (pre-compaction) code.
func (cg *Generator) Compile(ets []*bind.ET) (*code.Seq, error) {
	seq := &code.Seq{}
	for _, et := range ets {
		cg.Stats.Trees++
		if err := cg.compileTree(et); err != nil {
			return nil, fmt.Errorf("codegen: %s: %w", et.Source, err)
		}
		if len(cg.out) > 0 {
			cg.out[len(cg.out)-1].Comment = et.Source
		}
		seq.Instrs = append(seq.Instrs, cg.out...)
	}
	cg.Stats.Instrs = seq.Len()
	return seq, nil
}

// CompileET covers one expression tree and linearizes the derivation.
// Trees the grammar cannot derive in one piece (e.g. two computed operands
// on a single-accumulator machine) are split: a maximal coverable subtree
// is evaluated into a scratch memory cell and replaced by a memory leaf,
// then selection retries — the register-spill handling the paper delegates
// to its scheduling extension of Araujo/Malik.
func (cg *Generator) CompileET(et *bind.ET) ([]*code.Instr, error) {
	if err := cg.compileTree(et); err != nil {
		return nil, err
	}
	return slices.Clone(cg.out), nil
}

// compileTree compiles a top-level tree into out.  Nothing of an earlier
// tree is live any more, so its steps and code are released first; a
// spill's nested compile must not do this (see compileET).
func (cg *Generator) compileTree(et *bind.ET) error {
	cg.labels.ResetSteps()
	cg.out = cg.out[:0]
	return cg.compileET(et, maxSplits)
}

// maxSplits bounds ET splitting depth per tree, and maxSplitCandidates the
// alternatives examined per level (the candidates are size-ordered, so the
// first feasible ones are the most productive).
const (
	maxSplits          = 64
	maxSplitCandidates = 6
)

// compileET appends the code of et to out; on failure out is left as it
// was.  It runs nested, from a spill inside an enclosing tree's step,
// while that tree's steps, code and split candidates are still in use, so
// it only ever appends to the scratch it shares with them.
func (cg *Generator) compileET(et *bind.ET, budget int) error {
	entry := len(cg.out)
	err := cg.compileWhole(et)
	if err == nil || budget <= 0 {
		return err
	}
	s := cg.B.Exprs()
	// Algebraic fallback: machines without a subtracter/negator compute
	// a-b as a+(~b+1) and -b as ~b+1 (two's complement identities).  One
	// top-level rewrite converts every subtraction at once, so the
	// fallback is tried only there (retrying per split level would
	// duplicate the whole search exponentially).
	if budget == maxSplits {
		for _, rewritten := range [...]rtl.ExprID{
			twosComplement(s, et.Src),
			swapComparisons(s, et.Src, rtl.OpGt, rtl.OpGe),
			swapComparisons(s, et.Src, rtl.OpLt, rtl.OpLe),
		} {
			if rewritten == et.Src {
				continue
			}
			alt := bind.ET{Dest: et.Dest, DestAddr: et.DestAddr, Src: rewritten, Source: et.Source}
			if aerr := cg.compileET(&alt, budget-1); aerr == nil {
				return nil
			}
		}
	}
	// Try splitting: largest proper subtree that compiles into memory.
	base := len(cg.subs)
	defer func() { cg.subs = cg.subs[:base] }()
	cg.splitCandidates(et.Src)
	for i := base; i < len(cg.subs) && i-base < maxSplitCandidates; i++ {
		sub := cg.subs[i]
		cell, aerr := cg.allocScratch()
		if aerr != nil {
			return err
		}
		addr := s.Const(int64(cell), cg.B.AddrWidth)
		subET := bind.ET{Dest: cg.B.Memory, DestAddr: addr, Src: sub.h}
		if serr := cg.compileWhole(&subET); serr != nil {
			cg.freeScratch(cell)
			continue
		}
		leaf := s.Read(cg.B.Memory, cg.B.Width, addr)
		rest := bind.ET{
			Dest:     et.Dest,
			DestAddr: et.DestAddr,
			Src:      replaceAt(s, et.Src, sub.pos, leaf),
			Source:   et.Source,
		}
		rerr := cg.compileET(&rest, budget-1)
		cg.freeScratch(cell)
		if rerr != nil {
			// Commit to the first candidate whose subtree compiles:
			// backtracking across candidates is exponential, and the
			// size-ordered heuristic makes later candidates strictly less
			// promising.
			cg.out = cg.out[:entry]
			return rerr
		}
		cg.Stats.Spills++
		return nil
	}
	return err
}

// twosComplement rewrites every subtraction and negation of tree h of
// store s into complement identities: a-b → a+(~b+1), -b → ~b+1.
func twosComplement(s *rtl.Store, h rtl.ExprID) rtl.ExprID {
	e := s.Expr(h)
	if e.Kind != rtl.OpApp {
		return h
	}
	var buf [2]rtl.ExprID
	kids := buf[:0]
	for _, k := range s.Kids(h) {
		kids = append(kids, twosComplement(s, k))
	}
	w := e.Width
	switch e.Op {
	case rtl.OpSub:
		return s.Op(rtl.OpAdd, w, kids[0],
			s.Op(rtl.OpAdd, w, s.Op(rtl.OpNot, w, kids[1]), s.Const(1, w)))
	case rtl.OpNeg:
		return s.Op(rtl.OpAdd, w, s.Op(rtl.OpNot, w, kids[0]), s.Const(1, w))
	}
	return s.Op(e.Op, w, kids...)
}

// swapComparisons mirrors the listed comparison operators (a > b == b < a,
// a >= b == b <= a and vice versa) in tree h of store s, for machines
// whose comparator implements only one direction.
func swapComparisons(s *rtl.Store, h rtl.ExprID, ops ...rtl.Op) rtl.ExprID {
	e := s.Expr(h)
	if e.Kind != rtl.OpApp {
		return h
	}
	var buf [2]rtl.ExprID
	kids := buf[:0]
	for _, k := range s.Kids(h) {
		kids = append(kids, swapComparisons(s, k, ops...))
	}
	for _, op := range ops {
		if e.Op == op {
			return s.Op(mirrorOf(op), e.Width, kids[1], kids[0])
		}
	}
	return s.Op(e.Op, e.Width, kids...)
}

func mirrorOf(op rtl.Op) rtl.Op {
	switch op {
	case rtl.OpGt:
		return rtl.OpLt
	case rtl.OpGe:
		return rtl.OpLe
	case rtl.OpLt:
		return rtl.OpGt
	case rtl.OpLe:
		return rtl.OpGe
	}
	return op
}

// candidate is a split candidate: the subtree h at pre-order position pos
// of its tree, of size nodes.
type candidate struct {
	h         rtl.ExprID
	pos, size int32
}

// splitCandidates appends to subs the proper subtrees of tree h worth
// evaluating separately, largest first (a smaller remainder converges
// faster).  Equal subtrees share a handle, so each occurrence is listed,
// in pre-order among those of a size.
func (cg *Generator) splitCandidates(h rtl.ExprID) {
	base := len(cg.subs)
	var pos int32
	cg.collect(h, &pos)
	subs := cg.subs[base+1:] // the root is no candidate
	n := 0
	for _, c := range subs {
		if c.size >= 3 {
			subs[n] = c
			n++
		}
	}
	subs = subs[:n]
	slices.SortStableFunc(subs, func(a, b candidate) int { return cmp.Compare(b.size, a.size) })
	copy(cg.subs[base:], subs)
	cg.subs = cg.subs[:base+n]
}

// collect appends a candidate entry for every node of tree h but reads
// (already memory/register leaves), in pre-order, numbering the nodes
// from *pos; it returns h's size.  The root's entry is always first.
func (cg *Generator) collect(h rtl.ExprID, pos *int32) int32 {
	s := cg.B.Exprs()
	at := -1
	if *pos == 0 || s.Expr(h).Kind != rtl.Read {
		at = len(cg.subs)
		cg.subs = append(cg.subs, candidate{h: h, pos: *pos})
	}
	*pos++
	size := int32(1)
	for _, k := range s.Kids(h) {
		size += cg.collect(k, pos)
	}
	if at >= 0 {
		cg.subs[at].size = size
	}
	return size
}

// replaceAt returns tree h of store s with its subtree at pre-order
// position pos replaced by repl.
func replaceAt(s *rtl.Store, h rtl.ExprID, pos int32, repl rtl.ExprID) rtl.ExprID {
	var walk func(h rtl.ExprID) rtl.ExprID
	walk = func(h rtl.ExprID) rtl.ExprID {
		if pos == 0 {
			pos = -1
			return repl
		}
		pos--
		kids := s.Kids(h)
		for i, k := range kids {
			if nk := walk(k); pos < 0 {
				var buf [2]rtl.ExprID
				nkids := append(buf[:0], kids...)
				nkids[i] = nk
				return s.Node(*s.Expr(h), nkids...)
			}
		}
		return h
	}
	return walk(h)
}

// compileWhole appends the code of one expression tree, covered without
// splitting, to out; on failure out is left as it was.
func (cg *Generator) compileWhole(et *bind.ET) error {
	l := cg.labels
	l.Label(et.Src)
	if et.DestAddr == rtl.NoExpr {
		// Plain register/port destination: the paper's standard start rule.
		cov, err := l.Cover(et.Dest, et.Src)
		if err != nil {
			return err
		}
		cg.Stats.SelectCost += cov.Cost
		return cg.genStep(cov.Root)
	}
	// Addressable destination: pick the best final store considering the
	// destination-address pattern too.
	l.Label(et.DestAddr)
	rule, cost, fields, err := cg.selectRoot(et.Dest, et.Src, et.DestAddr)
	if err != nil {
		return err
	}
	cg.Stats.SelectCost += cost
	// Evaluate address operands first (they are registers feeding the
	// store), then the value operands, then the store itself; conflicts
	// among all operand registers are resolved together.
	step, err := l.DeriveRule(rule, et.Src, et.DestAddr)
	if err != nil {
		return err
	}
	return cg.genStepWithFields(step, fields)
}

// selectRoot finds the cheapest RT rule writing dest whose source pattern
// matches the labelled tree h and whose destination-address pattern
// matches the labelled address tree addr (with globally consistent operand
// fields), and returns it with its cost and those fields.  It scans the
// grammar's store rules for dest, in rule order, so the first cheapest
// rule wins.
func (cg *Generator) selectRoot(dest string, h, addr rtl.ExprID) (*grammar.Rule, int, []code.Field, error) {
	nt := cg.G.NT(dest)
	if nt < 0 {
		return nil, 0, nil, fmt.Errorf("unknown destination %q", dest)
	}
	l := cg.labels
	var best *grammar.Rule
	var bestFields []code.Field
	fields := cg.fields
	bestCost := int32(burs.Inf)
	for _, ri := range cg.G.StoreRules[nt] {
		r := &cg.G.Rules[ri]
		var c, ac int32
		if c, fields = l.MatchCostFields(r.Pat, h, fields[:0]); c >= burs.Inf {
			continue
		}
		if ac, fields = l.MatchCostFields(r.Addr, addr, fields); ac >= burs.Inf {
			continue
		}
		total := r.Cost + c + ac
		if total < bestCost {
			bestCost = total
			best = r
			bestFields = cg.keep(fields)
		}
	}
	cg.fields = fields
	if best == nil {
		s := cg.B.Exprs()
		return nil, 0, nil, fmt.Errorf("no store route into %s matches address %s (value %s)",
			dest, s.Expr(addr), s.Expr(h))
	}
	return best, int(bestCost), bestFields, nil
}

// keep copies operand fields out of the match scratch into the slab the
// compile's instructions keep, nil when there are none.
func (cg *Generator) keep(fields []code.Field) []code.Field {
	if len(fields) == 0 {
		return nil
	}
	out := cg.kept.Make(len(fields))
	copy(out, fields)
	return out
}

// genStep appends the code of a derivation step to out.
func (cg *Generator) genStep(step *burs.Step) error {
	if step.Rule.Kind == grammar.KindStop {
		return nil // value already resides in the register
	}
	_, cg.fields = cg.labels.MatchCostFields(step.Rule.Pat, step.Expr, cg.fields[:0])
	return cg.genStepWithFields(step, cg.keep(cg.fields))
}

// genStepWithFields is genStep with the operand fields of the final
// instruction given (the memory-destination root also binds address
// fields).  On failure out is left as it was.
func (cg *Generator) genStepWithFields(step *burs.Step, fields []code.Field) error {
	mark := len(cg.out)
	if err := cg.genOperands(step, mark); err != nil {
		cg.out = cg.out[:mark]
		return err
	}
	r := step.Rule
	in := cg.instrs.New()
	*in = code.Instr{Template: cg.G.Template(r), Swap: r.Swap, Fields: fields}
	cg.out = append(cg.out, in)
	return nil
}

// genOperands appends the code of step's operands, from out[mark:] on, in
// the evaluation order schedule picks, with spills.
func (cg *Generator) genOperands(step *burs.Step, mark int) error {
	// Generate operand code bottom-up.  Each kid's code lands after its
	// predecessor's in out; up to maxPermuted operands, the bounds,
	// registers and code views live in arrays on the stack.
	n := len(step.Kids)
	var endBuf [maxPermuted]int
	var regBuf [maxPermuted]string
	end := append(endBuf[:0], make([]int, n)...)
	kidReg := append(regBuf[:0], make([]string, n)...)
	for i, kid := range step.Kids {
		if err := cg.genStep(kid); err != nil {
			return err
		}
		end[i] = len(cg.out)
		kidReg[i] = cg.G.NTNames[kid.Rule.LHS]
	}
	var codeBuf [maxPermuted][]*code.Instr
	kidCode := append(codeBuf[:0], make([][]*code.Instr, n)...)
	for i, from := 0, mark; i < n; from, i = end[i], i+1 {
		if from < end[i] {
			kidCode[i] = cg.out[from:end[i]:end[i]]
		}
	}

	// Shared-subtree elision: two operands in the same register computing
	// equal subtrees (one handle) need only one evaluation.
	moved := false
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if kidReg[i] == kidReg[j] && len(kidCode[j]) > 0 &&
				step.Kids[i].Expr == step.Kids[j].Expr {
				kidCode[j] = nil
				moved = true
			}
		}
	}

	var spilledBuf [maxPermuted]bool
	spilled := append(spilledBuf[:0], make([]bool, n)...)
	order, err := schedule(kidCode, kidReg, spilled)
	if err != nil {
		return err
	}
	for k, i := range order {
		moved = moved || i != k || spilled[i]
	}
	if !moved {
		return nil // the kids' code is in place, in order
	}

	// Rebuild the operand code in evaluation order after the kids' own,
	// then move it down over theirs.
	top := len(cg.out)
	var scratchBuf [maxPermuted]int
	scratchOf := append(scratchBuf[:0], make([]int, n)...) // kid index -> scratch cell
	for _, i := range order {
		cg.out = append(cg.out, kidCode[i]...)
		if spilled[i] {
			cell, err := cg.allocScratch()
			if err != nil {
				return err
			}
			scratchOf[i] = cell
			if err := cg.spillStore(kidReg[i], cell); err != nil {
				return err
			}
			cg.Stats.Spills++
		}
	}
	// Reload spilled values (in order) before the parent instruction.
	for _, i := range order {
		if !spilled[i] {
			continue
		}
		from := len(cg.out)
		if err := cg.spillReload(kidReg[i], scratchOf[i]); err != nil {
			return err
		}
		// The reload must not clobber the other operand registers.
		for _, in := range cg.out[from:] {
			d := in.Def().Storage
			for j, reg := range kidReg {
				if j != i && reg == d && kidCode[j] != nil {
					return fmt.Errorf("spill reload of %s clobbers operand register %s", kidReg[i], reg)
				}
			}
		}
		cg.freeScratch(scratchOf[i])
	}
	cg.out = cg.out[:mark+copy(cg.out[mark:], cg.out[top:])]
	return nil
}

// schedule picks an operand evaluation order minimizing clobbering, and
// marks in spilled the operands that still need spilling.  A value computed earlier is
// clobbered when a later operand's code writes its register.  Up to
// maxPermuted operands every order is tried; more keep their own order.
func schedule(kidCode [][]*code.Instr, kidReg []string, spilled []bool) (order []int, err error) {
	n := len(kidCode)
	var perms [][]int // the orders to try, the identity first
	if n <= maxPermuted {
		perms = permTable[n]
	} else {
		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}
		perms = [][]int{identity}
	}
	order = perms[0]
	if n <= 1 {
		return order, nil
	}

	// clob[a*n+b]: b's code writes a's register.
	var clobBuf [maxPermuted * maxPermuted]bool
	clob := append(clobBuf[:0], make([]bool, n*n)...)
	for b, c := range kidCode {
		for _, in := range c {
			d := in.Def().Storage
			for a, reg := range kidReg {
				clob[a*n+b] = clob[a*n+b] || reg == d
			}
		}
	}
	conflicts := func(ord []int) int {
		cnt := 0
		for ai := 0; ai < len(ord); ai++ {
			for bi := ai + 1; bi < len(ord); bi++ {
				a, b := ord[ai], ord[bi]
				if kidCode[b] == nil {
					continue // elided duplicate
				}
				if clob[a*n+b] {
					cnt++
				}
				if kidReg[a] == kidReg[b] && kidCode[a] != nil {
					cnt++ // same register needed for two distinct values
				}
			}
		}
		return cnt
	}

	bestConf := conflicts(order)
	for _, p := range perms[1:] {
		if bestConf == 0 {
			break
		}
		if c := conflicts(p); c < bestConf {
			bestConf, order = c, p
		}
	}
	// Remaining conflicts: spill every earlier operand clobbered later.
	for ai := 0; ai < n; ai++ {
		for bi := ai + 1; bi < n; bi++ {
			a, b := order[ai], order[bi]
			if kidCode[b] == nil {
				continue
			}
			if clob[a*n+b] {
				spilled[a] = true
			}
			if kidReg[a] == kidReg[b] && kidCode[a] != nil {
				// Two live values in one register cannot be repaired by a
				// memory spill: the reload destroys the second value.
				return nil, fmt.Errorf(
					"operands compete for register %s and cannot be scheduled apart", kidReg[a])
			}
		}
	}
	return order, nil
}

// maxPermuted is the most operands schedule tries every order of; patterns
// rarely carry more nonterminals.
const maxPermuted = 4

// permTable[n] lists the orders of n operands, the identity first.  The
// orders are shared: callers must not modify them.
var permTable = func() (t [maxPermuted + 1][][]int) {
	for n := range t {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				t[n] = append(t[n], slices.Clone(perm))
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
	}
	return t
}()

// spillStore appends code storing register reg into the scratch cell.
func (cg *Generator) spillStore(reg string, cell int) error {
	regNT := cg.G.NT(reg)
	if regNT < 0 {
		return fmt.Errorf("cannot spill unknown register %s", reg)
	}
	width := 0
	for _, s := range cg.G.Spec.Storages {
		if s.Name == reg {
			width = s.Width
		}
	}
	s := cg.B.Exprs()
	et := bind.ET{
		Dest:     cg.B.Memory,
		DestAddr: s.Const(int64(cell), cg.B.AddrWidth),
		Src:      s.Read(reg, width, rtl.NoExpr),
	}
	if err := cg.compileET(&et, maxSplits); err != nil {
		return fmt.Errorf("spill store of %s: %w", reg, err)
	}
	return nil
}

// spillReload appends code loading the scratch cell back into register reg.
func (cg *Generator) spillReload(reg string, cell int) error {
	s := cg.B.Exprs()
	et := bind.ET{
		Dest:     reg,
		DestAddr: rtl.NoExpr,
		Src:      s.Read(cg.B.Memory, cg.B.Width, s.Const(int64(cell), cg.B.AddrWidth)),
	}
	if err := cg.compileET(&et, maxSplits); err != nil {
		return fmt.Errorf("spill reload of %s: %w", reg, err)
	}
	return nil
}

func (cg *Generator) allocScratch() (int, error) {
	if len(cg.scratchFree) == 0 {
		return 0, fmt.Errorf("out of spill cells (%d in use)", cg.B.ScratchLen)
	}
	cell := cg.scratchFree[len(cg.scratchFree)-1]
	cg.scratchFree = cg.scratchFree[:len(cg.scratchFree)-1]
	return cell, nil
}

func (cg *Generator) freeScratch(cell int) {
	cg.scratchFree = append(cg.scratchFree, cell)
}
