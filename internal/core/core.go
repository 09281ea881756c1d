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
	"repro/internal/cfront"
	"repro/internal/code"
	"repro/internal/codegen"
	"repro/internal/compact"
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
// Retarget returns the Target frozen: the encoder's per-template encoding
// tables are baked and the shared BDD manager is read-only, so Compile
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
// wall-clock axis of the diag.Budget, replacing the older ad-hoc timeout
// plumbing — a Budget with its own Ctx keeps it, so legacy callers are
// unaffected).
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

	feSpan, _ := scope.Start("frontend")
	err := diag.Guard(rep, "hdl", func() error {
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
		t.Name = net.Name
		t.Model = model
		t.Net = net
		return nil
	})
	feSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: HDL frontend: %w", err)
	}
	t.Stats.Frontend = time.Since(start)
	phaseSec.With("frontend").Observe(t.Stats.Frontend.Seconds())
	rtSpan.SetAttr("target", t.Name)

	if err := opts.Budget.Exceeded(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	phase := time.Now()
	iseSpan, iseScope := scope.Start("ise")
	if opts.ISE.Obs == nil {
		opts.ISE.Obs = iseScope
	}
	err = diag.Guard(rep, "ise", func() error {
		res, err := ise.Extract(t.Net, opts.ISE)
		if err != nil {
			return err
		}
		t.ISE = res
		t.Base = res.Base
		return nil
	})
	if err != nil {
		iseSpan.End()
		return nil, fmt.Errorf("core: instruction-set extraction: %w", err)
	}
	iseSpan.SetAttr("templates", t.Base.Len())
	iseSpan.SetAttr("dropped", t.ISE.Stats.Dropped)
	iseSpan.End()
	t.Stats.ISE = time.Since(phase)
	t.Stats.Extracted = t.Base.Len()
	t.Stats.ISEDetails = t.ISE.Stats
	phaseSec.With("ise").Observe(t.Stats.ISE.Seconds())

	phase = time.Now()
	extSpan, _ := scope.Start("extend")
	err = diag.Guard(rep, "extend", func() error {
		if !opts.NoExtension {
			ext := rewrite.DefaultOptions()
			if opts.Extension != nil {
				ext = *opts.Extension
			}
			rewrite.Extend(t.Base, ext)
		}
		return nil
	})
	extSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: template-base extension: %w", err)
	}
	t.Stats.Extension = time.Since(phase)
	t.Stats.Templates = t.Base.Len()
	phaseSec.With("extend").Observe(t.Stats.Extension.Seconds())

	if err := opts.Budget.Exceeded(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	phase = time.Now()
	gSpan, gScope := scope.Start("grammar")
	err = diag.Guard(rep, "grammar", func() error {
		g, err := grammar.BuildReported(t.Base, grammar.SpecFromNetlist(t.Net), rep)
		if err != nil {
			return err
		}
		t.Grammar = g
		t.Stats.GrammarSz = g.Stats()
		t.Stats.GrammarSz.Observe(gScope)
		return nil
	})
	gSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: grammar construction: %w", err)
	}
	t.Stats.Grammar = time.Since(phase)
	phaseSec.With("grammar").Observe(t.Stats.Grammar.Seconds())

	phase = time.Now()
	bSpan, _ := scope.Start("burs")
	err = diag.Guard(rep, "burs", func() error {
		t.Parser = burs.NewParser(t.Grammar)
		var background []string
		for _, st := range t.Net.Seq {
			if st.PC {
				background = append(background, st.QName())
			}
		}
		t.Encoder = asm.NewEncoder(t.ISE.Vars, t.Base, background...)
		return nil
	})
	bSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: parser generation: %w", err)
	}
	t.Stats.ParserGen = time.Since(phase)
	phaseSec.With("burs").Observe(t.Stats.ParserGen.Seconds())

	// Freeze: bake the per-template encoding tables and mark the BDD
	// manager read-only, making the Target safe for concurrent compiles.
	// This is the last manager-mutating step; it runs for degraded targets
	// too (frozen ≠ cacheable).
	phase = time.Now()
	fzSpan, _ := scope.Start("freeze")
	err = diag.Guard(rep, "freeze", func() error {
		t.Encoder.Freeze()
		return nil
	})
	fzSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: target freeze: %w", err)
	}
	t.Stats.Freeze = time.Since(phase)
	phaseSec.With("freeze").Observe(t.Stats.Freeze.Seconds())

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

// CompileResult is compiled machine code with its provenance.
type CompileResult struct {
	Program *ir.Program
	Binding *bind.Binding
	Seq     *code.Seq     // sequential RT code (post-peephole, pre-compaction)
	RawSeq  *code.Seq     // as selected, before peephole optimization
	Code    *code.Program // compacted, encoded instruction words
	ModeReq asm.ModeReq
	Stats   codegen.Stats
	Opt     opt.Stats
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

// CompileSourceContext compiles RecC source text for the target,
// observing ctx cancellation between pipeline stages.  Safe for concurrent
// use on a frozen target.
func (t *Target) CompileSourceContext(ctx context.Context, src string, opts CompileOptions) (*CompileResult, error) {
	prog, err := cfront.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: RecC frontend: %w", err)
	}
	return t.CompileProgramContext(ctx, prog, opts)
}

// CompileProgramContext compiles an IR program for the target.  ctx
// cancellation is observed between stages (bind, selection, peephole,
// compaction, encoding); a cancelled compile returns ctx.Err wrapped in a
// *diag.BudgetError so servers map it onto their timeout class.
//
// On a frozen target the whole compilation touches no shared mutable
// state: selection walks read-only tables, and encoding runs in a private
// copy-on-write BDD view, so concurrent compiles need no locking and the
// produced words are byte-identical to a serial run's.
func (t *Target) CompileProgramContext(ctx context.Context, prog *ir.Program, opts CompileOptions) (*CompileResult, error) {
	opts.Obs.Registry().Counter("record_core_compiles_total",
		"program compilations started").Inc()
	phaseSec := phaseSeconds(opts.Obs.Registry())
	// One throwaway encoding session per compilation; long-lived callers
	// should hold a Compiler, whose pooled sessions and pre-resolved
	// instruments avoid the per-call registry lookups and view allocation.
	sess := t.Encoder.NewSessionObs(opts.Obs)
	return t.compile(ctx, prog, opts, sess, opts.Obs, func(stage string, seconds float64) {
		phaseSec.With(stage).Observe(seconds)
	})
}

// compile is the shared per-program pipeline behind CompileProgramContext
// and Compiler: bind → select → peephole → compact → encode, using the
// caller-provided encoding session (owned by the caller; never retained)
// and reporting each stage's wall clock through observe.
func (t *Target) compile(ctx context.Context, prog *ir.Program, opts CompileOptions, sess *asm.Session, parent *obs.Scope, observe func(stage string, seconds float64)) (*CompileResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	check := func(stage string) error {
		if err := ctx.Err(); err != nil {
			return &diag.BudgetError{Resource: "deadline", Cause: fmt.Errorf("compile cancelled at %s: %w", stage, err)}
		}
		return nil
	}
	cSpan, scope := parent.Start("compile")
	defer cSpan.End()
	// stage wraps one pipeline stage in a span and the phase histogram;
	// the returned func must run exactly once, error path included.  The
	// stage's own wall-clock measurement feeds both, via Event, so tracing
	// a stage costs one ring append rather than a Start/End pair.
	stage := func(name string) func() {
		from := time.Now()
		return func() {
			d := time.Since(from)
			scope.Event(name, d)
			observe(name, d.Seconds())
		}
	}
	done := stage("bind")
	b, err := bind.Bind(prog, t.Net)
	if err != nil {
		done()
		return nil, err
	}
	ets, err := b.LowerProgram(prog)
	done()
	if err != nil {
		return nil, err
	}
	if err := check("selection"); err != nil {
		return nil, err
	}
	done = stage("select")
	gen := codegen.New(t.Grammar, t.Parser, b)
	raw, err := gen.Compile(ets)
	done()
	if err != nil {
		return nil, err
	}
	seq := raw
	var optStats opt.Stats
	if !opts.NoPeephole {
		done = stage("peephole")
		seq, optStats = opt.Optimize(raw)
		done()
	}
	if err := check("compaction"); err != nil {
		return nil, err
	}
	done = stage("compact")
	prg, err := compact.Compact(seq, sess, compact.Options{Disable: opts.NoCompaction, Obs: scope})
	if err != nil {
		done()
		return nil, err
	}
	err = compact.Verify(seq, prg, sess)
	done()
	if err != nil {
		return nil, err
	}
	if err := check("encoding"); err != nil {
		return nil, err
	}
	done = stage("encode")
	mode, err := sess.EncodeProgram(prg)
	done()
	if err != nil {
		return nil, err
	}
	cSpan.SetAttr("instrs", seq.Len())
	cSpan.SetAttr("words", prg.Len())
	return &CompileResult{
		Program: prog,
		Binding: b,
		Seq:     seq,
		RawSeq:  raw,
		Code:    prg,
		ModeReq: mode,
		Stats:   gen.Stats,
		Opt:     optStats,
	}, nil
}

// Listing renders the compiled program as an annotated listing.
func (t *Target) Listing(r *CompileResult) string {
	return t.Encoder.Listing(r.Code)
}

// Execute runs compiled code on the netlist simulator and returns the final
// values of every program variable (read back from the bound data memory).
func (t *Target) Execute(r *CompileResult) (ir.Env, error) {
	s := sim.New(t.Net)
	if len(r.ModeReq) > 0 {
		for storage, val := range r.ModeReq {
			if err := s.SetMemory(storage, []int64{val}); err != nil {
				return nil, err
			}
		}
	}
	for storage, img := range r.Binding.InitialImages(r.Program) {
		if err := s.SetMemory(storage, img); err != nil {
			return nil, err
		}
	}
	if err := s.RunProgram(r.Words()); err != nil {
		return nil, err
	}
	env := make(ir.Env)
	for _, d := range r.Program.Decls {
		place, _ := r.Binding.AddrOf(d.Name)
		memory := s.Mem[place.Storage]
		cells := make([]int64, d.Cells())
		copy(cells, memory[place.Addr:place.Addr+d.Cells()])
		env[d.Name] = cells
	}
	return env, nil
}

// CheckAgainstOracle compiles nothing new: it compares the simulator
// results with the IR interpreter on the same program and word width,
// returning a descriptive error on the first mismatch.
func (t *Target) CheckAgainstOracle(r *CompileResult) error {
	got, err := t.Execute(r)
	if err != nil {
		return fmt.Errorf("core: simulation: %w", err)
	}
	want, err := ir.Run(r.Program, r.Binding.Width)
	if err != nil {
		return fmt.Errorf("core: oracle: %w", err)
	}
	for _, d := range r.Program.Decls {
		for i := range want[d.Name] {
			if got[d.Name][i] != want[d.Name][i] {
				return fmt.Errorf("core: %s[%d] = %d on hardware, %d per oracle",
					d.Name, i, got[d.Name][i], want[d.Name][i])
			}
		}
	}
	return nil
}
