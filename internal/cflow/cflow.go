// Package cflow compiles programs with control flow (if/while and
// non-unrolled counted loops) for targets whose instruction set includes
// jump templates — the "standard jump instructions" of the paper's
// processor class (table 1).
//
// Instruction-set extraction discovers PC-destination RT templates
// automatically: the unconditional jump (PC := target field) and the
// conditional pair steered by a flag register, carried as residual dynamic
// guards.  This package lowers a program to a CFG, compiles each basic
// block through the ordinary selection/peephole/compaction pipeline,
// materializes branch conditions into the flag register, appends jump
// words, lays the blocks out, patches jump target fields, and encodes.
package cflow

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/bind"
	"repro/internal/code"
	"repro/internal/codegen"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/faultpoint"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rtl"
)

// Options tunes control-flow compilation and execution.
type Options struct {
	// MaxCycles bounds simulated execution (default 1<<20).
	MaxCycles int
	// NoCompaction disables per-block compaction.
	NoCompaction bool
	// NoPeephole skips per-block redundant-load/dead-store elimination.
	NoPeephole bool
	// Reporter receives per-block diagnostics.  nil is safe.
	Reporter *diag.Reporter
	// Budget bounds compilation (checked at block boundaries) and
	// execution (checked per simulated cycle).  nil means unlimited.
	Budget *diag.Budget
	// Obs receives per-block spans and block/word counters.  nil is safe.
	Obs *obs.Scope
}

// Result is a compiled control-flow program.
type Result struct {
	CFG     *ir.CFG
	Binding *bind.Binding
	Code    *code.Program
	// BlockStart[i] is the word address of block i; Exit is the halt
	// address (one past the last word).
	BlockStart []int
	Exit       int
	ModeReq    asm.ModeReq
}

// Words returns the encoded instruction words.
func (r *Result) Words() []uint64 {
	out := make([]uint64, len(r.Code.Words))
	for i, w := range r.Code.Words {
		out[i] = w.Bits
	}
	return out
}

// jumpSet is the target's branch machinery discovered in the template base.
type jumpSet struct {
	pcStorage string
	uncond    *rtl.Template // PC := field, no dynamic guard
	condTaken *rtl.Template // PC := field when flag == 1
	flagReg   string        // the register the conditional jump tests
	targetHi  int
	targetLo  int
}

// findJumps classifies the PC-destination templates of the target.
func findJumps(t *core.Target) (*jumpSet, error) {
	var pcQ string
	for _, st := range t.Net.Seq {
		if st.PC {
			pcQ = st.QName()
		}
	}
	if pcQ == "" {
		return nil, fmt.Errorf("cflow: target %s has no PC part", t.Name)
	}
	js := &jumpSet{pcStorage: pcQ}
	for _, tpl := range t.Base.Templates {
		if tpl.Dest != pcQ || tpl.DestPort || tpl.Src.Kind != rtl.InsnField {
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
			if g.Kind == rtl.OpApp && g.Op == rtl.OpEq &&
				g.Kids[0].Kind == rtl.Read && g.Kids[1].Kind == rtl.Const &&
				g.Kids[1].Val != 0 {
				if js.condTaken == nil {
					js.condTaken = tpl
					js.flagReg = g.Kids[0].Storage
				}
			}
		}
	}
	if js.uncond == nil {
		return nil, fmt.Errorf("cflow: target %s has no unconditional jump template", t.Name)
	}
	if js.condTaken == nil {
		return nil, fmt.Errorf("cflow: target %s has no flag-conditional jump template", t.Name)
	}
	js.targetHi, js.targetLo = js.uncond.Src.Hi, js.uncond.Src.Lo
	if js.condTaken.Src.Hi != js.targetHi || js.condTaken.Src.Lo != js.targetLo {
		return nil, fmt.Errorf("cflow: conditional and unconditional jumps use different target fields")
	}
	return js, nil
}

// pendingJump records a jump word whose target is patched after layout.
type pendingJump struct {
	word        *code.Word
	instr       *code.Instr
	targetBlock int // or exit when < 0
}

// Compile lowers, selects, compacts and encodes a control-flow program for
// c's target.  The whole program runs on one encoding session borrowed from
// c's pool (feasibility tests and encoding share its private view), so
// concurrent Compiles on one Compiler need no locking.
func Compile(c *core.Compiler, prog *ir.Program, opts Options) (*Result, error) {
	t := c.Target()
	cfg, err := ir.BuildCFG(prog)
	if err != nil {
		return nil, err
	}
	js, err := findJumps(t)
	if err != nil {
		return nil, err
	}
	declProg := &ir.Program{Decls: cfg.Decls, Body: prog.Body}
	b, err := bind.Bind(declProg, t.Net)
	if err != nil {
		return nil, err
	}
	gen := codegen.New(t.Grammar, t.Parser, b)
	sess := c.AcquireSession()
	defer c.ReleaseSession(sess)
	cfSpan, scope := opts.Obs.Start("cflow.compile", obs.KV("blocks", len(cfg.Blocks)))
	defer cfSpan.End()
	cBlocks := scope.Registry().Counter("record_cflow_blocks_total",
		"basic blocks compiled by the control-flow pipeline")

	res := &Result{CFG: cfg, Binding: b, Code: &code.Program{},
		BlockStart: make([]int, len(cfg.Blocks))}
	var pending []*pendingJump

	appendJump := func(tpl *rtl.Template, target int) {
		in := &code.Instr{Template: tpl}
		w := &code.Word{Instrs: []*code.Instr{in}}
		res.Code.Words = append(res.Code.Words, w)
		pending = append(pending, &pendingJump{word: w, instr: in, targetBlock: target})
	}

	for i, blk := range cfg.Blocks {
		blk := blk
		// Each block compiles under its own span so traces show where a
		// control-flow-heavy program spends its time.
		err := func() error {
			sp, bscope := scope.Start("cflow.block", obs.KV("block", i))
			defer sp.End()
			if err := faultpoint.Hit("cflow.block", fmt.Sprintf("%s#%d", t.Name, i)); err != nil {
				return fmt.Errorf("cflow: block %d: %w", i, err)
			}
			if err := opts.Budget.Exceeded(); err != nil {
				opts.Reporter.Errorf("cflow", diag.Pos{}, "compilation budget exhausted at block %d of %d", i, len(cfg.Blocks))
				return fmt.Errorf("cflow: block %d: %w", i, err)
			}
			res.BlockStart[i] = len(res.Code.Words)
			// Straight-line part.
			var ets []*bind.ET
			for _, a := range blk.Assigns {
				et, err := b.LowerAssign(a)
				if err != nil {
					return err
				}
				ets = append(ets, et)
			}
			seq, err := gen.Compile(ets)
			if err != nil {
				return fmt.Errorf("cflow: block %d: %w", i, err)
			}
			if !opts.NoPeephole {
				seq, _ = opt.Optimize(seq)
			}

			// Branch conditions materialize into the flag register before the
			// jump; the flag-set code joins the block for compaction.
			br, isBranch := blk.Term.(*ir.Branch)
			if isBranch {
				condTree, err := b.LowerExpr(asBool(br.Cond))
				if err != nil {
					return err
				}
				flagCode, err := gen.CompileET(&bind.ET{
					Dest: js.flagReg, Src: condTree,
					Source: fmt.Sprintf("branch if %s", br.Cond)})
				if err != nil {
					return fmt.Errorf("cflow: block %d condition: %w", i, err)
				}
				for _, in := range flagCode {
					seq.Append(in)
				}
			}
			prg, err := compact.Compact(seq, sess, compact.Options{Disable: opts.NoCompaction, Obs: bscope})
			if err != nil {
				return fmt.Errorf("cflow: block %d: %w", i, err)
			}
			if err := compact.Verify(seq, prg, sess); err != nil {
				return err
			}
			res.Code.Words = append(res.Code.Words, prg.Words...)

			// Terminator.
			next := i + 1 // fallthrough block in layout order
			switch term := blk.Term.(type) {
			case *ir.Halt:
				if i != len(cfg.Blocks)-1 {
					appendJump(js.uncond, -1)
				}
			case *ir.Goto:
				if term.Target != next {
					appendJump(js.uncond, term.Target)
				}
			case *ir.Branch:
				appendJump(js.condTaken, term.Then)
				if term.Else != next {
					appendJump(js.uncond, term.Else)
				}
			default:
				return fmt.Errorf("cflow: block %d missing terminator", i)
			}
			sp.SetAttr("words", len(res.Code.Words)-res.BlockStart[i])
			cBlocks.Inc()
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	res.Exit = len(res.Code.Words)

	// Patch jump targets and encode everything.
	for _, pj := range pending {
		target := res.Exit
		if pj.targetBlock >= 0 {
			target = res.BlockStart[pj.targetBlock]
		}
		pj.instr.Fields = []code.Field{{Hi: js.targetHi, Lo: js.targetLo, Val: int64(target)}}
	}
	mode, err := sess.EncodeProgram(res.Code)
	if err != nil {
		return nil, err
	}
	res.ModeReq = mode
	return res, nil
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

// Execute runs the compiled program on the netlist simulator until the PC
// reaches the exit address, returning the final variable values.
func Execute(t *core.Target, r *Result, opts Options) (ir.Env, error) {
	maxCycles := opts.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 1 << 20
	}
	s, err := t.Simulator(r.ModeReq, r.Binding, r.CFG.Decls)
	if err != nil {
		return nil, err
	}
	if err := s.LoadProgram(r.Words()); err != nil {
		return nil, err
	}
	for cycle := 0; ; cycle++ {
		if int(s.PC()) == r.Exit {
			break
		}
		if cycle >= maxCycles {
			return nil, fmt.Errorf("cflow: execution exceeded %d cycles (PC=%d)", maxCycles, s.PC())
		}
		if cycle&1023 == 0 {
			if err := opts.Budget.Exceeded(); err != nil {
				return nil, fmt.Errorf("cflow: execution stopped at cycle %d: %w", cycle, err)
			}
		}
		if err := s.Step(); err != nil {
			return nil, err
		}
	}
	return r.Binding.ReadBack(s.Mem, r.CFG.Decls), nil
}

// CheckAgainstOracle executes the compiled program and compares every
// variable with the CFG interpreter.
func CheckAgainstOracle(t *core.Target, r *Result, opts Options) error {
	got, err := Execute(t, r, opts)
	if err != nil {
		return err
	}
	want := ir.NewEnv(&ir.Program{Decls: r.CFG.Decls}, r.Binding.Width)
	if err := r.CFG.Interp(want, r.Binding.Width); err != nil {
		return fmt.Errorf("cflow: oracle: %w", err)
	}
	if err := ir.Mismatch(r.CFG.Decls, got, want); err != nil {
		return fmt.Errorf("cflow: %w", err)
	}
	return nil
}
