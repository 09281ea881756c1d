// Package core is the public facade of the retargetable compiler: it wires
// the full RECORD pipeline of the paper's figure 1.
//
//	HDL model → internal graph model → instruction-set extraction →
//	template-base extension → tree grammar → tree parser (code selector)
//
// Retarget runs that pipeline once per processor model and returns a
// Target whose Compile methods translate RecC source programs into
// compacted, encoded machine code; Execute runs the code on the netlist
// simulator so results can be checked against the IR interpreter oracle.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/bind"
	"repro/internal/burs"
	"repro/internal/code"
	"repro/internal/codegen"
	"repro/internal/diag"
	"repro/internal/grammar"
	"repro/internal/hdl"
	"repro/internal/ir"
	"repro/internal/ise"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rewrite"
	"repro/internal/rtl"
	"repro/internal/sim"
)

// RetargetOptions tunes the retargeting pipeline.
type RetargetOptions struct {
	ISE ise.Options
	// Extension configures the template-base extension; zero value means
	// rewrite.DefaultOptions().
	Extension *rewrite.Options
	// NoExtension skips the extension phase entirely (ablation).
	NoExtension bool
	// Reporter collects diagnostics (frontend errors with positions,
	// degraded-mode warnings) from every phase.  nil is safe.
	Reporter *diag.Reporter
	// Budget bounds the whole retargeting run: its deadline is checked at
	// phase boundaries and inside route enumeration, and its BDD node cap
	// during control-signal analysis.  nil means unlimited.
	Budget *diag.Budget
	// Obs receives per-phase spans and pipeline instruments (see
	// internal/obs); like Reporter it is excluded from artifact
	// fingerprints and nil is safe.
	Obs *obs.Scope
}

// phaseSeconds is the shared per-phase wall-clock histogram; retargeting
// phases and compile stages land in one family distinguished by the phase
// label, so both register with identical metadata.
func phaseSeconds(reg *obs.Registry) *obs.HistogramVec {
	return reg.HistogramVec("record_core_phase_seconds",
		"wall-clock seconds per pipeline phase", nil, "phase")
}

// RetargetStats reports per-phase retargeting effort — the quantities of
// the paper's table 3.
type RetargetStats struct {
	Frontend   time.Duration // HDL parse + check + elaboration
	ISE        time.Duration // instruction-set extraction
	Extension  time.Duration // template-base extension
	Grammar    time.Duration // tree grammar construction
	ParserGen  time.Duration // parser generation
	Freeze     time.Duration // baking the read-only encoding tables
	Total      time.Duration
	Extracted  int // templates delivered by ISE
	Templates  int // templates after extension (the paper's column 2)
	GrammarSz  grammar.Stats
	ISEDetails ise.Stats
}

// Target is a retargeted compiler instance for one processor model.
//
// Retarget returns the Target frozen: the encoder's encoding tables are
// baked and the shared BDD manager is read-only, so Compile
// methods touch no shared mutable state and any number of goroutines may
// compile against one Target concurrently.  Degraded (partial) targets are
// frozen too — freezing is about reentrancy, cacheability is a separate
// question (see internal/artifact.Cacheable).
type Target struct {
	Name    string
	Model   *hdl.Model
	Net     *netlist.Netlist
	ISE     *ise.Result
	Base    *rtl.Base
	Grammar *grammar.Grammar
	Parser  *burs.Parser
	Encoder *asm.Encoder

	Stats RetargetStats
}

// RetargetContext builds a compiler for the processor described by MDL
// source.  ctx bounds the run: cancellation or deadline expiry is observed
// at phase boundaries and inside route enumeration (it becomes the
// wall-clock axis of the diag.Budget; a Budget with its own Ctx keeps it).
//
// Every phase runs under a recovery boundary: panics (pipeline invariant
// violations, injected faults) surface as Error diagnostics on
// opts.Reporter and a *diag.PanicError return instead of crashing the
// caller.  Frontend syntax errors are reported individually with their
// source positions.
//
// The returned Target is frozen (see Target) and safe for concurrent
// compilation.
func RetargetContext(ctx context.Context, mdlSource string, opts RetargetOptions) (*Target, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Merge ctx into the budget so every existing deadline check in the
	// pipeline observes the caller's cancellation.
	switch {
	case opts.Budget == nil:
		if ctx != context.Background() {
			opts.Budget = &diag.Budget{Ctx: ctx}
		}
	case opts.Budget.Ctx == nil:
		b := *opts.Budget
		b.Ctx = ctx
		opts.Budget = &b
	}
	rep := opts.Reporter
	t := &Target{}
	start := time.Now()

	// Instrumentation: one span per phase under a retarget root, and the
	// same durations as seconds in the shared phase histogram.  A nil
	// opts.Obs (or one without a tracer/registry) makes all of this
	// discard.
	opts.Obs.Registry().Counter("record_core_retargets_total",
		"retargeting pipeline runs").Inc()
	phaseSec := phaseSeconds(opts.Obs.Registry())
	rtSpan, scope := opts.Obs.Start("retarget")
	defer rtSpan.End()

	// Thread the budget and reporter into ISE unless the caller set them
	// on the ISE options explicitly.
	if opts.ISE.Reporter == nil {
		opts.ISE.Reporter = rep
	}
	if opts.ISE.Budget == nil {
		opts.ISE.Budget = opts.Budget
	}

	// The phases in pipeline order.  Each runs under its own span (name)
	// and recovery boundary (guard); its wall clock lands in *d and in the
	// phase histogram, and a failure is wrapped as "core: what: ...".
	// budget marks the phases preceded by a budget check.
	phases := []struct {
		name, guard, what string
		budget            bool
		d                 *time.Duration
		run               func(sp *obs.Span, sc *obs.Scope) error
	}{
		{"frontend", "hdl", "HDL frontend", false, &t.Stats.Frontend, func(*obs.Span, *obs.Scope) error {
			model, err := hdl.ParseAndCheck(mdlSource)
			if err != nil {
				for _, e := range hdl.Errors(err) {
					rep.Errorf("hdl", diag.Pos{Line: e.Pos.Line, Col: e.Pos.Col}, "%s", e.Msg)
				}
				return err
			}
			net, err := netlist.Elaborate(model)
			if err != nil {
				rep.Errorf("hdl", diag.Pos{}, "elaboration: %v", err)
				return err
			}
			t.Name, t.Model, t.Net = net.Name, model, net
			rtSpan.SetAttr("target", t.Name)
			return nil
		}},
		{"ise", "ise", "instruction-set extraction", true, &t.Stats.ISE, func(sp *obs.Span, sc *obs.Scope) error {
			if opts.ISE.Obs == nil {
				opts.ISE.Obs = sc
			}
			res, err := ise.Extract(t.Net, opts.ISE)
			if err != nil {
				return err
			}
			t.ISE, t.Base = res, res.Base
			t.Stats.Extracted = t.Base.Len()
			t.Stats.ISEDetails = res.Stats
			sp.SetAttr("templates", t.Base.Len())
			sp.SetAttr("dropped", res.Stats.Dropped)
			return nil
		}},
		{"extend", "extend", "template-base extension", false, &t.Stats.Extension, func(*obs.Span, *obs.Scope) error {
			if !opts.NoExtension {
				ext := rewrite.DefaultOptions()
				if opts.Extension != nil {
					ext = *opts.Extension
				}
				rewrite.Extend(t.Base, ext)
			}
			t.Stats.Templates = t.Base.Len()
			return nil
		}},
		{"grammar", "grammar", "grammar construction", true, &t.Stats.Grammar, func(_ *obs.Span, sc *obs.Scope) error {
			g, err := grammar.BuildReported(t.Base, grammar.SpecFromNetlist(t.Net), rep)
			if err != nil {
				return err
			}
			t.Grammar = g
			t.Stats.GrammarSz = g.Stats()
			t.Stats.GrammarSz.Observe(sc)
			return nil
		}},
		{"burs", "burs", "parser generation", false, &t.Stats.ParserGen, func(*obs.Span, *obs.Scope) error {
			t.Parser = burs.NewParser(t.Grammar)
			var background []string
			for _, st := range t.Net.Seq {
				if st.PC {
					background = append(background, st.QName())
				}
			}
			t.Encoder = asm.NewEncoder(t.ISE.Vars, t.Base, background...)
			return nil
		}},
		// Freeze: bake the encoding tables and mark the BDD
		// manager read-only, making the Target safe for concurrent
		// compiles.  This is the last manager-mutating step; it runs for
		// degraded targets too (frozen ≠ cacheable).
		{"freeze", "freeze", "target freeze", false, &t.Stats.Freeze, func(*obs.Span, *obs.Scope) error {
			t.Encoder.Freeze()
			return nil
		}},
	}
	for _, p := range phases {
		if p.budget {
			if err := opts.Budget.Exceeded(); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
		from := time.Now()
		sp, sc := scope.Start(p.name)
		err := diag.Guard(rep, p.guard, func() error { return p.run(sp, sc) })
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", p.what, err)
		}
		*p.d = time.Since(from)
		phaseSec.With(p.name).Observe(p.d.Seconds())
	}

	t.Stats.Total = time.Since(start)
	if t.ISE.Stats.Dropped > 0 {
		rep.Infof("core", diag.Pos{},
			"retargeted %s in degraded mode: %d destination(s) dropped, %d templates kept",
			t.Name, t.ISE.Stats.Dropped, t.Stats.Templates)
	}
	return t, nil
}

// CompileOptions tunes program compilation.
type CompileOptions struct {
	// NoCompaction keeps one RT per word (ablation baseline).
	NoCompaction bool
	// NoPeephole skips redundant-load/dead-store elimination (ablation).
	NoPeephole bool
	// Obs receives per-stage spans and compile instruments.  Instruments
	// are atomic, so concurrent compiles against one frozen target may
	// share a scope.  nil is safe.
	Obs *obs.Scope
}

// CompileResult is compiled machine code with its provenance.  For a
// program with control flow, CFG is its lowering, Seq and RawSeq hold the
// basic blocks' sequences (jumps excluded) concatenated in layout order,
// BlockStart[i] is the word address of block i and Exit the halt address
// (one past the last word); CFG is nil for straight-line code.
type CompileResult struct {
	Program *ir.Program
	Binding *bind.Binding
	Seq     *code.Seq     // sequential RT code (post-peephole, pre-compaction)
	RawSeq  *code.Seq     // as selected, before peephole optimization
	Code    *code.Program // compacted, encoded instruction words
	ModeReq asm.ModeReq
	Stats   codegen.Stats
	Opt     opt.Stats

	CFG        *ir.CFG
	BlockStart []int
	Exit       int
}

// Words returns the encoded instruction words.
func (r *CompileResult) Words() []uint64 {
	out := make([]uint64, len(r.Code.Words))
	for i, w := range r.Code.Words {
		out[i] = w.Bits
	}
	return out
}

// SeqLen is the pre-compaction code size (number of RT instructions).
func (r *CompileResult) SeqLen() int { return r.Seq.Len() }

// CodeLen is the post-compaction code size (number of instruction words).
func (r *CompileResult) CodeLen() int { return r.Code.Len() }

// Frozen reports whether the target's encoding tables are baked and its
// BDD manager read-only (always true for Retarget-built targets).
func (t *Target) Frozen() bool { return t.Encoder != nil && t.Encoder.Frozen() }

// Listing renders the compiled program as an annotated listing.
func (t *Target) Listing(r *CompileResult) string {
	return t.Encoder.Listing(r.Code)
}

// Simulator returns a netlist simulator of the target loaded with a
// compiled program's data: the mode register values its encoding requires
// and the initial images of decls at their placements in b.  The program
// words are the caller's to load and run.
func (t *Target) Simulator(mode asm.ModeReq, b *bind.Binding, decls []*ir.Decl) (*sim.Simulator, error) {
	s := sim.New(t.Net)
	for storage, val := range mode {
		if err := s.SetMemory(storage, []int64{val}); err != nil {
			return nil, err
		}
	}
	for storage, img := range b.InitialImages(&ir.Program{Decls: decls}) {
		if err := s.SetMemory(storage, img); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// maxCycles bounds the simulated run of a control-flow program; a
// straight-line program runs exactly as many cycles as it has words.
const maxCycles = 1 << 20

// decls are the variables a compiled program places: the program's own,
// plus a control-flow program's synthetic loop variables.
func (r *CompileResult) decls() []*ir.Decl {
	if r.CFG != nil {
		return r.CFG.Decls
	}
	return r.Program.Decls
}

// Execute runs compiled code on the netlist simulator and returns the final
// values of every program variable (read back from the bound data memory).
func (t *Target) Execute(r *CompileResult) (ir.Env, error) {
	return t.ExecuteContext(context.Background(), r)
}

// ExecuteContext is Execute under a deadline: a control-flow program runs
// until the PC reaches its exit address, for at most maxCycles cycles,
// and stops with a *diag.BudgetError once ctx is done (checked every 1024
// cycles).
func (t *Target) ExecuteContext(ctx context.Context, r *CompileResult) (ir.Env, error) {
	decls := r.decls()
	s, err := t.Simulator(r.ModeReq, r.Binding, decls)
	if err != nil {
		return nil, err
	}
	if r.CFG == nil {
		err = s.RunProgram(r.Words())
	} else {
		err = runToExit(ctx, s, r)
	}
	if err != nil {
		return nil, err
	}
	return r.Binding.ReadBack(s.Mem, decls), nil
}

// runToExit steps a loaded control-flow program until its PC reaches the
// exit address.
func runToExit(ctx context.Context, s *sim.Simulator, r *CompileResult) error {
	if err := s.LoadProgram(r.Words()); err != nil {
		return err
	}
	budget := diag.Budget{Ctx: ctx}
	for cycle := 0; int(s.PC()) != r.Exit; cycle++ {
		if cycle >= maxCycles {
			return fmt.Errorf("core: execution exceeded %d cycles (PC=%d)", maxCycles, s.PC())
		}
		if cycle&1023 == 0 {
			if err := budget.Exceeded(); err != nil {
				return fmt.Errorf("core: execution stopped at cycle %d: %w", cycle, err)
			}
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// CheckAgainstOracle compiles nothing new: it compares the simulator
// results with the IR interpreter (the CFG interpreter for control flow)
// on the same program and word width, returning a descriptive error on
// the first mismatch.
func (t *Target) CheckAgainstOracle(r *CompileResult) error {
	got, err := t.CheckAgainstOracleContext(context.Background(), r)
	if got == nil && err != nil {
		return fmt.Errorf("core: simulation: %w", err)
	}
	return err
}

// CheckAgainstOracleContext is CheckAgainstOracle with the simulated run
// under ctx, as in ExecuteContext.  It returns the simulated values with
// the verdict; they are nil, and the error is ExecuteContext's, when the
// simulation itself failed.
func (t *Target) CheckAgainstOracleContext(ctx context.Context, r *CompileResult) (ir.Env, error) {
	got, err := t.ExecuteContext(ctx, r)
	if err != nil {
		return nil, err
	}
	width := r.Binding.Width
	var want ir.Env
	if r.CFG == nil {
		want, err = ir.Run(r.Program, width)
	} else {
		want = ir.NewEnv(&ir.Program{Decls: r.CFG.Decls}, width)
		err = r.CFG.Interp(want, width)
	}
	if err != nil {
		return got, fmt.Errorf("core: oracle: %w", err)
	}
	if err := ir.Mismatch(r.decls(), got, want); err != nil {
		return got, fmt.Errorf("core: %w", err)
	}
	return got, nil
}
