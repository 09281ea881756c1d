// The Compiler handle: the long-lived compile side of a retargeted
// processor.
//
// RetargetContext is the expensive offline step; per-program compilation is
// meant to be cheap and massively parallel.  CompileSourceContext alone
// cannot deliver that: every call re-resolves metric instruments through
// the registry mutex, allocates a fresh encoding session (a BDD view plus
// its overlay tables) and throws the session's warmed operation cache away.
// A Compiler binds one frozen Target to one Config once and amortizes all
// of it — sessions are pooled per worker via sync.Pool and recycled while
// their copy-on-write overlay stays small, instruments are resolved at
// construction, and the compile options are fixed up front — so cmd/record
// -jobs, recordd workers and the batch path all compile through one
// reusable object.
//
// Reusing an encoding session across compilations is sound because the
// produced code is a pure function of the frozen tables: ROBDDs are
// canonical for the frozen variable order, so every condition a session
// builds is structurally identical whether its view cache is cold or warm,
// and the satisfying-path walk that picks instruction bits sees the same
// structure either way.  Output stays byte-identical to a serial,
// fresh-session run; the -race 32-way test in freeze_test.go holds this.
package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/cfront"
	"repro/internal/ir"
	"repro/internal/obs"
)

// maxPooledOverlay bounds the private BDD entries (overlay nodes plus
// filled operation-cache entries) a pooled session may accumulate before
// ReleaseSession drops it instead of recycling it: the warm cache is worth
// keeping, an unboundedly growing overlay is not.  The view's cache is
// sized from its node count, so 2^16 entries is at most ~2 MB of overlay
// slices per retained session.  A session that has compiled every DSPStone
// kernel at the sizes recordbench draws on tms320c25 (N ≤ 64, ≤ 32 for
// n_complex_updates and biquad_N) holds about 44k entries (28k nodes and
// 16k filled cache entries), so it stays pooled.
const maxPooledOverlay = 1 << 16

// compileStages are the per-program pipeline stage labels, in order.
var compileStages = []string{"bind", "select", "peephole", "compact", "encode"}

// Compiler is a reusable compile handle for one frozen Target.  It is safe
// for concurrent use by any number of goroutines; its pooled sessions give
// the contention-free hot path that per-call session allocation cannot.
type Compiler struct {
	t    *Target
	opts CompileOptions

	// sessions pools *asm.Session values.  Sessions of a frozen encoder
	// are independent; pooling trades the per-compile view allocation for
	// an OverlaySize-bounded amount of retained overlay per idle session.
	sessions sync.Pool

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
	c.sessions.New = func() any { return t.Encoder.NewSessionObs(obsScope) }
	return c, nil
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

// CompileProgram compiles an IR program through the pooled hot path.
func (c *Compiler) CompileProgram(ctx context.Context, prog *ir.Program) (*CompileResult, error) {
	return c.CompileProgramOpts(ctx, prog, c.opts)
}

// CompileProgramOpts compiles an IR program with per-call option
// overrides (see CompileSourceOpts for the Obs caveat).
func (c *Compiler) CompileProgramOpts(ctx context.Context, prog *ir.Program, opts CompileOptions) (*CompileResult, error) {
	c.compiles.Inc()
	sess := c.AcquireSession()
	defer c.ReleaseSession(sess)
	if opts.Obs == nil {
		opts.Obs = c.opts.Obs
	}
	return c.t.compile(ctx, prog, opts, sess, opts.Obs, c.observeStage)
}

func (c *Compiler) observeStage(stage string, seconds float64) {
	if h := c.stageSec[stage]; h != nil {
		h.Observe(seconds)
	}
}

// AcquireSession borrows an encoding session from the pool for callers
// that drive the phases themselves (the control-flow compiler).  The
// session must be returned with ReleaseSession and must not be shared
// between goroutines while borrowed.
func (c *Compiler) AcquireSession() *asm.Session {
	return c.sessions.Get().(*asm.Session)
}

// ReleaseSession returns a borrowed session to the pool, discarding it
// when its private BDD overlay has grown past maxPooledOverlay.
func (c *Compiler) ReleaseSession(s *asm.Session) {
	if s == nil || s.OverlaySize() > maxPooledOverlay {
		return
	}
	c.sessions.Put(s)
}

// Listing renders a compiled program as an annotated listing.
func (c *Compiler) Listing(r *CompileResult) string { return c.t.Listing(r) }
