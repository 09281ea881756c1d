// Package codegen drives code selection: it covers lowered expression
// trees with RT templates via the BURS tree parser, linearizes the optimal
// derivations into sequential RT instructions with concrete operand
// fields, orders operand evaluation to minimize special-purpose register
// conflicts (the Sethi-Ullman-flavored extension of Araujo/Malik the paper
// cites in section 3.2), and inserts memory spills when a register value
// cannot survive a sibling computation.
package codegen

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/bind"
	"repro/internal/burs"
	"repro/internal/code"
	"repro/internal/grammar"
	"repro/internal/rtl"
)

// Generator compiles ETs for one retargeted machine.
type Generator struct {
	G *grammar.Grammar
	P *burs.Parser
	B *bind.Binding

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
	cg := &Generator{G: g, P: p, B: b}
	for i := 0; i < b.ScratchLen; i++ {
		cg.scratchFree = append(cg.scratchFree, b.ScratchBase+i)
	}
	return cg
}

// Compile covers every ET and returns the sequential (pre-compaction) code.
func (cg *Generator) Compile(ets []*bind.ET) (*code.Seq, error) {
	seq := &code.Seq{}
	for _, et := range ets {
		cg.Stats.Trees++
		instrs, err := cg.CompileET(et)
		if err != nil {
			return nil, fmt.Errorf("codegen: %s: %w", et.Source, err)
		}
		if len(instrs) > 0 {
			instrs[len(instrs)-1].Comment = et.Source
		}
		for _, in := range instrs {
			seq.Append(in)
		}
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
	return cg.compileET(et, maxSplits)
}

// maxSplits bounds ET splitting depth per tree, and maxSplitCandidates the
// alternatives examined per level (the candidates are size-ordered, so the
// first feasible ones are the most productive).
const (
	maxSplits          = 64
	maxSplitCandidates = 6
)

func (cg *Generator) compileET(et *bind.ET, budget int) ([]*code.Instr, error) {
	instrs, err := cg.compileWhole(et)
	if err == nil {
		return instrs, nil
	}
	if budget <= 0 {
		return nil, err
	}
	// Algebraic fallback: machines without a subtracter/negator compute
	// a-b as a+(~b+1) and -b as ~b+1 (two's complement identities).  One
	// top-level rewrite converts every subtraction at once, so the
	// fallback is tried only there (retrying per split level would
	// duplicate the whole search exponentially).
	if budget == maxSplits {
		for _, rewritten := range []*rtl.Expr{
			twosComplement(et.Src),
			swapComparisons(et.Src, rtl.OpGt, rtl.OpGe),
			swapComparisons(et.Src, rtl.OpLt, rtl.OpLe),
		} {
			if rewritten.Equal(et.Src) {
				continue
			}
			alt := &bind.ET{Dest: et.Dest, DestAddr: et.DestAddr, Src: rewritten, Source: et.Source}
			if instrs, aerr := cg.compileET(alt, budget-1); aerr == nil {
				return instrs, nil
			}
		}
	}
	// Try splitting: largest proper subtree that compiles into memory.
	tried := 0
	for _, sub := range splitCandidates(et.Src) {
		if tried >= maxSplitCandidates {
			break
		}
		tried++
		cell, aerr := cg.allocScratch()
		if aerr != nil {
			return nil, err
		}
		subET := &bind.ET{
			Dest:     cg.B.Memory,
			DestAddr: rtl.NewConst(int64(cell), cg.B.AddrWidth),
			Src:      sub,
		}
		subCode, serr := cg.compileWhole(subET)
		if serr != nil {
			cg.freeScratch(cell)
			continue
		}
		leaf := rtl.NewRead(cg.B.Memory, cg.B.Width, rtl.NewConst(int64(cell), cg.B.AddrWidth))
		rest := &bind.ET{
			Dest:     et.Dest,
			DestAddr: et.DestAddr,
			Src:      replaceFirst(et.Src, sub, leaf),
			Source:   et.Source,
		}
		restCode, rerr := cg.compileET(rest, budget-1)
		cg.freeScratch(cell)
		if rerr != nil {
			// Commit to the first candidate whose subtree compiles:
			// backtracking across candidates is exponential, and the
			// size-ordered heuristic makes later candidates strictly less
			// promising.
			return nil, rerr
		}
		cg.Stats.Spills++
		return append(subCode, restCode...), nil
	}
	return nil, err
}

// twosComplement rewrites every subtraction and negation into complement
// identities: a-b → a+(~b+1), -b → ~b+1.
func twosComplement(e *rtl.Expr) *rtl.Expr {
	if e.Kind != rtl.OpApp {
		return e
	}
	kids := make([]*rtl.Expr, len(e.Kids))
	for i, k := range e.Kids {
		kids[i] = twosComplement(k)
	}
	w := e.Width
	switch e.Op {
	case rtl.OpSub:
		return rtl.NewOp(rtl.OpAdd, w, kids[0],
			rtl.NewOp(rtl.OpAdd, w,
				rtl.NewOp(rtl.OpNot, w, kids[1]), rtl.NewConst(1, w)))
	case rtl.OpNeg:
		return rtl.NewOp(rtl.OpAdd, w,
			rtl.NewOp(rtl.OpNot, w, kids[0]), rtl.NewConst(1, w))
	}
	return rtl.NewOp(e.Op, w, kids...)
}

// swapComparisons mirrors the listed comparison operators (a > b == b < a,
// a >= b == b <= a and vice versa), for machines whose comparator
// implements only one direction.
func swapComparisons(e *rtl.Expr, ops ...rtl.Op) *rtl.Expr {
	if e.Kind != rtl.OpApp {
		return e
	}
	kids := make([]*rtl.Expr, len(e.Kids))
	for i, k := range e.Kids {
		kids[i] = swapComparisons(k, ops...)
	}
	for _, op := range ops {
		if e.Op == op {
			return rtl.NewOp(mirrorOf(op), e.Width, kids[1], kids[0])
		}
	}
	return rtl.NewOp(e.Op, e.Width, kids...)
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

// splitCandidates returns proper subtrees worth evaluating separately,
// largest first (a smaller remainder converges faster).
func splitCandidates(e *rtl.Expr) []*rtl.Expr {
	var subs []*rtl.Expr
	e.Walk(func(n *rtl.Expr) {
		if n == e || n.Size() < 3 {
			return
		}
		if n.Kind == rtl.Read {
			return // already a memory/register leaf
		}
		subs = append(subs, n)
	})
	sort.SliceStable(subs, func(i, j int) bool { return subs[i].Size() > subs[j].Size() })
	return subs
}

// replaceFirst returns tree with the first occurrence of old (pointer
// identity) replaced by repl; when old does not occur, tree is returned
// unchanged (same pointer), so callers can detect progress.
func replaceFirst(tree, old, repl *rtl.Expr) *rtl.Expr {
	if tree == old {
		return repl
	}
	for i, k := range tree.Kids {
		if nk := replaceFirst(k, old, repl); nk != k {
			c := *tree
			c.Kids = append([]*rtl.Expr(nil), tree.Kids...)
			c.Kids[i] = nk
			return &c
		}
	}
	return tree
}

// compileWhole covers one expression tree without splitting.
func (cg *Generator) compileWhole(et *bind.ET) ([]*code.Instr, error) {
	root := cg.P.Label(et.Src)
	if et.DestAddr == nil {
		// Plain register/port destination: the paper's standard start rule.
		cov, err := cg.P.CoverLabeled(et.Dest, root)
		if err != nil {
			return nil, err
		}
		cg.Stats.SelectCost += cov.Cost
		return cg.genStep(cov.Root)
	}
	// Addressable destination: pick the best final store considering the
	// destination-address pattern too.
	addrRoot := cg.P.Label(et.DestAddr)
	rule, cost, fields, err := cg.selectRoot(et.Dest, root, addrRoot)
	if err != nil {
		return nil, err
	}
	cg.Stats.SelectCost += cost
	// Evaluate address operands first (they are registers feeding the
	// store), then the value operands, then the store itself; conflicts
	// among all operand registers are resolved together.
	kids, err := cg.P.DeriveKids(rule.Addr, addrRoot, nil)
	if err != nil {
		return nil, err
	}
	if kids, err = cg.P.DeriveKids(rule.Pat, root, kids); err != nil {
		return nil, err
	}
	return cg.genStepWithFields(&burs.Step{Rule: rule, Node: root, Kids: kids}, fields)
}

// selectRoot finds the cheapest RT rule writing dest whose source pattern
// matches the labelled tree and whose destination-address pattern matches
// the labelled address tree (with globally consistent operand fields), and
// returns it with its cost and those fields.  It scans the grammar's
// store rules for dest, in rule order, so the first cheapest rule wins.
func (cg *Generator) selectRoot(dest string, root, addrRoot *burs.Node) (*grammar.Rule, int, []code.Field, error) {
	nt := cg.G.NT(dest)
	if nt < 0 {
		return nil, 0, nil, fmt.Errorf("unknown destination %q", dest)
	}
	var best *grammar.Rule
	var fields, bestFields []code.Field
	bestCost := int32(burs.Inf)
	for _, ri := range cg.G.StoreRules[nt] {
		r := &cg.G.Rules[ri]
		var c, ac int32
		if c, fields = cg.P.MatchCostFields(r.Pat, root, fields[:0]); c >= burs.Inf {
			continue
		}
		if ac, fields = cg.P.MatchCostFields(r.Addr, addrRoot, fields); ac >= burs.Inf {
			continue
		}
		total := r.Cost + c + ac
		if total < bestCost {
			bestCost = total
			best = r
			bestFields = append(bestFields[:0], fields...)
		}
	}
	if best == nil {
		return nil, 0, nil, fmt.Errorf("no store route into %s matches address %s (value %s)",
			dest, addrRoot.Expr, root.Expr)
	}
	return best, int(bestCost), bestFields, nil
}

// genStep linearizes a derivation step into instructions.
func (cg *Generator) genStep(step *burs.Step) ([]*code.Instr, error) {
	if step.Rule.Kind == grammar.KindStop {
		return nil, nil // value already resides in the register
	}
	_, fields := cg.P.MatchCostFields(step.Rule.Pat, step.Node, nil)
	return cg.genStepWithFields(step, fields)
}

// genStepWithFields is genStep with the operand fields of the final
// instruction given (the memory-destination root also binds address
// fields).
func (cg *Generator) genStepWithFields(step *burs.Step, fields []code.Field) ([]*code.Instr, error) {
	r := step.Rule

	// Generate operand code bottom-up.  Up to maxPermuted operands, the
	// kids' code and registers live in arrays on the stack.
	n := len(step.Kids)
	var codeBuf [maxPermuted][]*code.Instr
	var regBuf [maxPermuted]string
	kidCode := append(codeBuf[:0], make([][]*code.Instr, n)...)
	kidReg := append(regBuf[:0], make([]string, n)...)
	for i, kid := range step.Kids {
		c, err := cg.genStep(kid)
		if err != nil {
			return nil, err
		}
		kidCode[i] = c
		kidReg[i] = cg.G.NTNames[kid.Rule.LHS]
	}

	// Shared-subtree elision: two operands in the same register computing
	// structurally equal subtrees need only one evaluation.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if kidReg[i] == kidReg[j] && len(kidCode[j]) > 0 &&
				step.Kids[i].Node.Expr.Equal(step.Kids[j].Node.Expr) {
				kidCode[j] = nil
			}
		}
	}

	order, spilled, err := schedule(kidCode, kidReg)
	if err != nil {
		return nil, err
	}

	size := 1 // the kids' code and this step's instruction; spills grow it
	for _, c := range kidCode {
		size += len(c)
	}
	out := make([]*code.Instr, 0, size)
	var scratchOf []int // kid index -> scratch cell, made on the first spill
	for _, i := range order {
		out = append(out, kidCode[i]...)
		if spilled[i] {
			cell, err := cg.allocScratch()
			if err != nil {
				return nil, err
			}
			if scratchOf == nil {
				scratchOf = make([]int, n)
			}
			scratchOf[i] = cell
			store, err := cg.spillStore(kidReg[i], cell)
			if err != nil {
				return nil, err
			}
			out = append(out, store...)
			cg.Stats.Spills++
		}
	}
	// Reload spilled values (in order) before the parent instruction.
	for _, i := range order {
		if !spilled[i] {
			continue
		}
		reload, err := cg.spillReload(kidReg[i], scratchOf[i])
		if err != nil {
			return nil, err
		}
		// The reload must not clobber the other operand registers.
		for _, in := range reload {
			d := in.Def().Storage
			for j, reg := range kidReg {
				if j != i && reg == d && kidCode[j] != nil {
					return nil, fmt.Errorf("spill reload of %s clobbers operand register %s", kidReg[i], reg)
				}
			}
		}
		out = append(out, reload...)
		cg.freeScratch(scratchOf[i])
	}

	out = append(out, &code.Instr{Template: cg.G.Template(r), Swap: r.Swap, Fields: fields})
	return out, nil
}

// schedule picks an operand evaluation order minimizing clobbering, and
// marks operands that still need spilling.  A value computed earlier is
// clobbered when a later operand's code writes its register.  Up to
// maxPermuted operands every order is tried; more keep their own order.
func schedule(kidCode [][]*code.Instr, kidReg []string) (order []int, spilled []bool, err error) {
	n := len(kidCode)
	spilled = make([]bool, n)
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
		return order, spilled, nil
	}

	// clob[a*n+b]: b's code writes a's register.
	clob := make([]bool, n*n)
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
				return nil, nil, fmt.Errorf(
					"operands compete for register %s and cannot be scheduled apart", kidReg[a])
			}
		}
	}
	return order, spilled, nil
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

// spillStore emits code storing register reg into the scratch cell.
func (cg *Generator) spillStore(reg string, cell int) ([]*code.Instr, error) {
	regNT := cg.G.NT(reg)
	if regNT < 0 {
		return nil, fmt.Errorf("cannot spill unknown register %s", reg)
	}
	width := 0
	for _, s := range cg.G.Spec.Storages {
		if s.Name == reg {
			width = s.Width
		}
	}
	et := &bind.ET{
		Dest:     cg.B.Memory,
		DestAddr: rtl.NewConst(int64(cell), cg.B.AddrWidth),
		Src:      rtl.NewRead(reg, width, nil),
	}
	instrs, err := cg.CompileET(et)
	if err != nil {
		return nil, fmt.Errorf("spill store of %s: %w", reg, err)
	}
	return instrs, nil
}

// spillReload emits code loading the scratch cell back into register reg.
func (cg *Generator) spillReload(reg string, cell int) ([]*code.Instr, error) {
	et := &bind.ET{
		Dest: reg,
		Src:  rtl.NewRead(cg.B.Memory, cg.B.Width, rtl.NewConst(int64(cell), cg.B.AddrWidth)),
	}
	instrs, err := cg.CompileET(et)
	if err != nil {
		return nil, fmt.Errorf("spill reload of %s: %w", reg, err)
	}
	return instrs, nil
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
