// The Compiler handle: the per-program half of RECORD, and the one way to
// compile against a retargeted processor.
//
// RetargetContext is the expensive offline step; per-program compilation is
// meant to be cheap and massively parallel.  A Compiler binds one frozen
// Target to one Config and amortizes everything a compile needs besides
// the program: workspaces — an encoding session (a BDD view plus its
// overlay tables) beside the subject store, labels and slabs of code
// selection — are kept on a free list and recycled while the session's
// copy-on-write overlay stays small, instruments are resolved at
// construction, and the compile options are fixed up front.  cmd/record,
// recordd workers and the naive compiler all compile through it,
// straight-line programs and programs with if/while alike; a new
// Compiler's first compile is a fresh-session compile.
//
// Reusing an encoding session across compilations is sound because the
// produced code is a pure function of the frozen tables: ROBDDs are
// canonical for the frozen variable order, so every condition a session
// builds is structurally identical whether its view cache is cold or warm,
// and the satisfying-path walk that picks instruction bits sees the same
// structure either way.  Selection's scratch is reset per compile and
// holds nothing a later compile reads.  Output stays byte-identical to a
// serial, fresh-session run; the -race 32-way test in compiler_test.go and
// TestPooledScratchNoLeak hold this.
package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/bind"
	"repro/internal/cfront"
	"repro/internal/code"
	"repro/internal/codegen"
	"repro/internal/compact"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rtl"
)

// maxPooledOverlay bounds the private entries (BDD overlay nodes, filled
// operation-cache entries and memoised template-set conditions) a session
// on the free list may accumulate before its release drops it instead of
// recycling it: the warm cache is worth keeping, an unboundedly growing
// overlay is not.  The view's cache is sized from its node count, so 2^16
// entries is at most ~2 MB of overlay slices per retained session.  A
// session that has compiled every DSPStone kernel on tms320c25 at every
// size recordbench can draw (8 ≤ N ≤ 64, ≤ 32 for n_complex_updates and
// biquad_N) holds about 24.6k entries (21 template sets, 10 of one RT),
// and a ref session over the DSPStone suite about 1.0k: both stay pooled.
const maxPooledOverlay = 1 << 16

// compileStages are the per-program pipeline stage labels, in order.
var compileStages = []string{"bind", "select", "peephole", "compact", "encode"}

// Compiler is a reusable compile handle for one frozen Target.  It is safe
// for concurrent use by any number of goroutines; its pooled sessions give
// the contention-free hot path that per-call session allocation cannot.
type Compiler struct {
	t    *Target
	opts CompileOptions

	// free holds the idle workspaces, most recently released last.
	// Sessions of a frozen encoder are independent; keeping them trades
	// the per-compile view allocation for an OverlaySize-bounded amount of
	// retained overlay per idle workspace.  Unlike a sync.Pool, the list
	// survives garbage collection and is shared by every CPU; it never
	// holds more workspaces than were ever borrowed at once.
	mu   sync.Mutex
	free []*workspace
	// newSession makes a session for a workspace the list cannot supply.
	newSession func() *asm.Session

	// Instruments resolved once against the configured registry so the hot
	// path never takes the registry mutex.  All are nil-safe.
	compiles *obs.Counter
	stageSec map[string]*obs.Histogram
}

// NewCompiler builds a compile handle for a frozen target.  cfg supplies
// the compile options (NoCompaction, NoPeephole), the observability scope
// and nothing else; retargeting fields are ignored here.  The target must
// be frozen — an unfrozen target's encoder mutates shared state and cannot
// back a concurrent handle.
func NewCompiler(t *Target, cfg Config) (*Compiler, error) {
	if t == nil {
		return nil, fmt.Errorf("core: NewCompiler: nil target")
	}
	if !t.Frozen() {
		return nil, fmt.Errorf("core: NewCompiler: target %q is not frozen", t.Name)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Compiler{t: t, opts: cfg.Compile()}
	reg := cfg.Obs.Registry()
	c.compiles = reg.Counter("record_core_compiles_total",
		"program compilations started")
	phaseSec := phaseSeconds(reg)
	c.stageSec = make(map[string]*obs.Histogram, len(compileStages))
	for _, s := range compileStages {
		c.stageSec[s] = phaseSec.With(s)
	}
	obsScope := cfg.Obs
	c.newSession = func() *asm.Session { return t.Encoder.NewSessionObs(obsScope) }
	return c, nil
}

// workspace is what one compile borrows: an encoding session and code
// selection's subject store and generator, whose working memory is reset
// per compile and kept for the next.
type workspace struct {
	sess  *asm.Session
	exprs rtl.Store
	gen   *codegen.Generator // nil until the first compile
}

// acquire borrows a workspace, the most recently released one if any.
func (c *Compiler) acquire() *workspace {
	c.mu.Lock()
	if n := len(c.free); n > 0 {
		w := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		c.mu.Unlock()
		return w
	}
	c.mu.Unlock()
	return &workspace{sess: c.newSession()}
}

// release returns a borrowed workspace, discarding it when its session's
// private BDD overlay has grown past maxPooledOverlay.
func (c *Compiler) release(w *workspace) {
	if w.sess.OverlaySize() > maxPooledOverlay {
		return
	}
	c.mu.Lock()
	c.free = append(c.free, w)
	c.mu.Unlock()
}

// generator returns the workspace's generator, reset to compile the trees
// of b.
func (w *workspace) generator(t *Target, b *bind.Binding) *codegen.Generator {
	if w.gen == nil {
		w.gen = codegen.New(t.Grammar, t.Parser, b)
	} else {
		w.gen.Reset(b)
	}
	return w.gen
}

// Target returns the frozen target the compiler compiles for.
func (c *Compiler) Target() *Target { return c.t }

// CompileSource compiles RecC source text through the pooled hot path.
func (c *Compiler) CompileSource(ctx context.Context, src string) (*CompileResult, error) {
	return c.CompileSourceOpts(ctx, src, c.opts)
}

// CompileSourceOpts compiles RecC source text with per-call option
// overrides.  opts.Obs overrides the span scope only; counters, stage
// histograms and session instruments stay bound to the registry the
// Compiler was constructed with.
func (c *Compiler) CompileSourceOpts(ctx context.Context, src string, opts CompileOptions) (*CompileResult, error) {
	prog, err := cfront.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("core: RecC frontend: %w", err)
	}
	return c.CompileProgramOpts(ctx, prog, opts)
}

// CompileProgramOpts compiles an IR program with per-call option
// overrides (see CompileSourceOpts for the Obs caveat).  It runs the
// per-program pipeline — bind → select → peephole → compact → encode — on
// a pooled encoding session, timing each stage into the compiler's stage
// histograms.  A straight-line program compiles as one flattened block.  A
// program with if/while compiles as the basic blocks of its CFG, for
// targets whose instruction set has jump templates: each block is
// selected, peephole-optimized and compacted on its own, its branch
// condition is materialized into the flag register, and jump words link
// the blocks.  Each stage handles every block before the next stage
// starts, so a stage's time is observed once per program.
//
// On a frozen target the whole compilation touches no shared mutable
// state: selection walks read-only tables, and encoding runs in the
// session's private copy-on-write BDD view, so concurrent compiles need no
// locking.  ctx cancellation is observed between stages; a cancelled
// compile returns ctx.Err wrapped in a *diag.BudgetError so servers map it
// onto their timeout class.
func (c *Compiler) CompileProgramOpts(ctx context.Context, prog *ir.Program, opts CompileOptions) (*CompileResult, error) {
	c.compiles.Inc()
	w := c.acquire()
	defer c.release(w)
	sess := w.sess
	if opts.Obs == nil {
		opts.Obs = c.opts.Obs
	}
	if ctx == nil {
		ctx = context.Background()
	}
	t := c.t
	check := func(stage string) error {
		if err := ctx.Err(); err != nil {
			return &diag.BudgetError{Resource: "deadline", Cause: fmt.Errorf("compile cancelled at %s: %w", stage, err)}
		}
		return nil
	}
	cSpan, scope := opts.Obs.Start("compile")
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
			c.stageSec[name].Observe(d.Seconds())
		}
	}
	var single [1]block
	done := stage("bind")
	w.exprs.Reset()
	b, cf, blocks, err := lower(t, prog, &w.exprs, single[:0])
	done()
	if err != nil {
		return nil, err
	}
	if err := check("selection"); err != nil {
		return nil, err
	}
	done = stage("select")
	gen := w.generator(t, b)
	for i := range blocks {
		if err = blocks[i].selectCode(gen); err != nil {
			break
		}
	}
	done()
	if err != nil {
		return nil, err
	}
	var optStats opt.Stats
	if !opts.NoPeephole {
		done = stage("peephole")
		for i := range blocks {
			var s opt.Stats
			blocks[i].seq, s = opt.Optimize(blocks[i].raw)
			optStats.LoadsRemoved += s.LoadsRemoved
			optStats.StoresRemoved += s.StoresRemoved
			optStats.Passes += s.Passes
		}
		done()
	}
	if err := check("compaction"); err != nil {
		return nil, err
	}
	done = stage("compact")
	for i := range blocks {
		k := &blocks[i]
		if len(k.flag) > 0 {
			// The branch condition's code joins the block after the
			// peephole pass, so it sets the flag right before the jump.
			k.seq = &code.Seq{Instrs: append(slices.Clip(k.seq.Instrs), k.flag...)}
		}
		if k.prg, err = compact.Compact(k.seq, sess, compact.Options{Disable: opts.NoCompaction, Obs: scope}); err != nil {
			break
		}
		if err = compact.Verify(k.seq, k.prg, sess); err != nil {
			break
		}
	}
	done()
	if err != nil {
		return nil, err
	}
	if err := check("encoding"); err != nil {
		return nil, err
	}
	done = stage("encode")
	res := &CompileResult{Program: prog, Binding: b, Stats: gen.Stats, Opt: optStats}
	if cf == nil {
		res.RawSeq, res.Seq, res.Code = blocks[0].raw, blocks[0].seq, blocks[0].prg
	} else {
		err = cf.link(res, blocks)
	}
	if err == nil {
		res.ModeReq, err = sess.EncodeProgram(res.Code)
	}
	done()
	if err != nil {
		return nil, err
	}
	cSpan.SetAttr("instrs", res.Seq.Len())
	cSpan.SetAttr("words", res.Code.Len())
	return res, nil
}

// AcquireSession borrows an encoding session from the free list for
// callers that drive the phases themselves (recordbench's per-layer
// timing).  The session must be returned with ReleaseSession and must not
// be shared between goroutines while borrowed.
func (c *Compiler) AcquireSession() *asm.Session { return c.acquire().sess }

// ReleaseSession returns a borrowed session to the free list, discarding
// it when its private BDD overlay has grown past maxPooledOverlay.
func (c *Compiler) ReleaseSession(s *asm.Session) {
	if s != nil {
		c.release(&workspace{sess: s})
	}
}
