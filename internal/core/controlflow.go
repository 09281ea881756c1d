package core

import (
	"fmt"

	"repro/internal/bind"
	"repro/internal/code"
	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/rtl"
)

// block is one basic block on its way through the compile pipeline.  A
// straight-line program is a single block without a branch condition.
type block struct {
	ets  []*bind.ET
	cond *bind.ET      // flag := branch condition; nil unless the block ends in a branch
	raw  *code.Seq     // selected code of ets
	flag []*code.Instr // selected code of cond
	seq  *code.Seq     // compaction input: raw after peephole, then flag
	prg  *code.Program // compacted words
}

// lower binds prog and lowers it into the subject store s to the blocks
// the pipeline compiles, appended to the caller's buffer: one flattened
// block for a straight-line program, else the basic blocks of its CFG,
// returned with the target's jump templates as cf.
func lower(t *Target, prog *ir.Program, s *rtl.Store, blocks []block) (*bind.Binding, *controlFlow, []block, error) {
	if !ir.HasControlFlow(prog) {
		b, err := bind.BindStore(prog, t.Net, s)
		if err != nil {
			return nil, nil, nil, err
		}
		ets, err := b.LowerProgram(prog)
		if err != nil {
			return nil, nil, nil, err
		}
		return b, nil, append(blocks, block{ets: ets}), nil
	}
	cfg, err := ir.BuildCFG(prog)
	if err != nil {
		return nil, nil, nil, err
	}
	js, err := findJumps(t)
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := bind.BindStore(&ir.Program{Decls: cfg.Decls, Body: prog.Body}, t.Net, s)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, blk := range cfg.Blocks {
		k := block{ets: make([]*bind.ET, 0, len(blk.Assigns))}
		for _, a := range blk.Assigns {
			et, err := b.LowerAssign(a)
			if err != nil {
				return nil, nil, nil, err
			}
			k.ets = append(k.ets, et)
		}
		if br, ok := blk.Term.(*ir.Branch); ok {
			cond, err := b.LowerExpr(asBool(br.Cond))
			if err != nil {
				return nil, nil, nil, err
			}
			k.cond = &bind.ET{Dest: js.flagReg, DestAddr: rtl.NoExpr, Src: cond, Source: fmt.Sprintf("branch if %s", br.Cond)}
		}
		blocks = append(blocks, k)
	}
	return b, &controlFlow{cfg: cfg, jumps: js}, blocks, nil
}

// asBool coerces an arbitrary condition expression to a 1-bit comparison.
func asBool(e ir.Expr) ir.Expr {
	if bin, ok := e.(*ir.Bin); ok {
		switch bin.Op {
		case rtl.OpEq, rtl.OpNe, rtl.OpLt, rtl.OpLe, rtl.OpGt, rtl.OpGe:
			return e
		}
	}
	return &ir.Bin{Op: rtl.OpNe, X: e, Y: &ir.Const{Val: 0}}
}

// selectCode covers the block's trees and its branch condition.
func (k *block) selectCode(gen *codegen.Generator) error {
	raw, err := gen.Compile(k.ets)
	if err != nil {
		return err
	}
	k.raw, k.seq = raw, raw
	if k.cond != nil {
		if k.flag, err = gen.CompileET(k.cond); err != nil {
			return fmt.Errorf("core: %s: %w", k.cond.Source, err)
		}
	}
	return nil
}

// controlFlow is a program's CFG and the target jumps that link its blocks.
type controlFlow struct {
	cfg   *ir.CFG
	jumps *jumpSet
}

// jumpSet is the target's branch machinery discovered in the template base.
type jumpSet struct {
	uncond    *rtl.Template // PC := field, no dynamic guard
	condTaken *rtl.Template // PC := field when flag == 1
	flagReg   string        // the register the conditional jump tests
	targetHi  int
	targetLo  int
}

// findJumps classifies the PC-destination templates of the target: the
// "standard jump instructions" of the paper's processor class (table 1),
// which instruction-set extraction finds as RT templates into the PC, the
// conditional ones carrying a dynamic flag guard.
func findJumps(t *Target) (*jumpSet, error) {
	var pcQ string
	for _, st := range t.Net.Seq {
		if st.PC {
			pcQ = st.QName()
		}
	}
	if pcQ == "" {
		return nil, fmt.Errorf("core: target %s has no PC part", t.Name)
	}
	js := &jumpSet{}
	s := t.Base.Exprs()
	for _, tpl := range t.Base.Templates {
		if tpl.Dest != pcQ || tpl.DestPort || s.Expr(tpl.Src).Kind != rtl.InsnField {
			continue
		}
		switch len(tpl.Cond.Dynamic) {
		case 0:
			if js.uncond == nil {
				js.uncond = tpl
			}
		case 1:
			g := tpl.Cond.Dynamic[0]
			// Guard shape: (flag == 1).
			if e := s.Expr(g); e.Kind == rtl.OpApp && e.Op == rtl.OpEq {
				flag, one := s.Expr(s.Kids(g)[0]), s.Expr(s.Kids(g)[1])
				if flag.Kind == rtl.Read && one.Kind == rtl.Const && one.Val != 0 && js.condTaken == nil {
					js.condTaken = tpl
					js.flagReg = flag.Storage
				}
			}
		}
	}
	if js.uncond == nil {
		return nil, fmt.Errorf("core: target %s has no unconditional jump template", t.Name)
	}
	if js.condTaken == nil {
		return nil, fmt.Errorf("core: target %s has no flag-conditional jump template", t.Name)
	}
	target, condTarget := s.Expr(js.uncond.Src), s.Expr(js.condTaken.Src)
	js.targetHi, js.targetLo = target.Hi, target.Lo
	if condTarget.Hi != js.targetHi || condTarget.Lo != js.targetLo {
		return nil, fmt.Errorf("core: conditional and unconditional jumps use different target fields")
	}
	return js, nil
}

// link lays the compiled blocks out in CFG order into res.  A block whose
// successor is not the next block in layout gets jump words; the
// conditional jump tests the flag its condition code set.  Jump targets
// are patched once every block's address is known, and a target that does
// not fit the jump's target field is an error, not a wrapped address.
func (cf *controlFlow) link(res *CompileResult, blocks []block) error {
	js := cf.jumps
	res.CFG = cf.cfg
	res.BlockStart = make([]int, len(blocks))
	res.RawSeq, res.Seq, res.Code = &code.Seq{}, &code.Seq{}, &code.Program{}
	type pending struct {
		in    *code.Instr
		block int // the target block, or -1 for the exit
	}
	var jumps []pending
	jump := func(tpl *rtl.Template, block int) {
		in := &code.Instr{Template: tpl}
		res.Code.Words = append(res.Code.Words, &code.Word{Instrs: []*code.Instr{in}})
		jumps = append(jumps, pending{in, block})
	}
	for i, k := range blocks {
		res.BlockStart[i] = len(res.Code.Words)
		res.RawSeq.Instrs = append(append(res.RawSeq.Instrs, k.raw.Instrs...), k.flag...)
		res.Seq.Instrs = append(res.Seq.Instrs, k.seq.Instrs...)
		res.Code.Words = append(res.Code.Words, k.prg.Words...)
		next := i + 1 // the fallthrough block in layout order
		switch term := cf.cfg.Blocks[i].Term.(type) {
		case *ir.Halt:
			if next != len(blocks) {
				jump(js.uncond, -1)
			}
		case *ir.Goto:
			if term.Target != next {
				jump(js.uncond, term.Target)
			}
		case *ir.Branch:
			jump(js.condTaken, term.Then)
			if term.Else != next {
				jump(js.uncond, term.Else)
			}
		default:
			return fmt.Errorf("core: block %d missing terminator", i)
		}
	}
	res.Exit = len(res.Code.Words)
	res.Stats.Instrs = res.RawSeq.Len()
	width := js.targetHi - js.targetLo + 1
	for _, j := range jumps {
		target := res.Exit
		if j.block >= 0 {
			target = res.BlockStart[j.block]
		}
		if target >= 1<<width {
			return fmt.Errorf("core: jump target %d does not fit the %d-bit target field IW[%d:%d]",
				target, width, js.targetHi, js.targetLo)
		}
		j.in.Fields = []code.Field{{Hi: js.targetHi, Lo: js.targetLo, Val: int64(target)}}
	}
	return nil
}
