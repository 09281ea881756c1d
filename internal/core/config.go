package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/diag"
	"repro/internal/ise"
	"repro/internal/obs"
	"repro/internal/rewrite"
)

// Config collapses the drivers' grab-bag of knobs — retargeting options,
// compile options, resource budgets, diagnostics policy, parallelism —
// into one validated unit.  The record CLI and the recordd service both
// build a Config from their flags and derive everything else from it;
// RetargetOptions and CompileOptions remain as views produced by the
// Retarget and Compile methods, so the per-phase APIs keep their narrow
// signatures.
//
// The flag → field mapping is documented in the README ("Configuration"
// section).
type Config struct {
	// Retargeting.
	NoExtension bool             // skip template-base extension (ablation)
	ISE         ise.Options      // instruction-set extraction limits
	Extension   *rewrite.Options // nil = rewrite.DefaultOptions()

	// Compilation.
	NoCompaction bool // one RT per word (ablation baseline)
	NoPeephole   bool // skip redundant-load/dead-store elimination

	// Resource budgets.  Timeout is a convenience for callers without
	// their own context plumbing; context deadlines passed to the
	// *Context APIs take effect regardless.
	Timeout     time.Duration // wall clock per run; 0 = unlimited
	MaxBDDNodes int           // BDD universe cap during extraction; 0 = unlimited

	// Diagnostics policy.
	Strict    bool // promote warnings to errors
	MaxErrors int  // bail after this many errors; 0 = unlimited

	// Parallelism: concurrent compiles against one frozen target
	// (record -jobs, recordd -workers).  0 means 1.
	Jobs int

	// Observability: the scope carried into both option views.  Like
	// Reporter state it never affects produced code or cache keys; nil
	// disables instrumentation.
	Obs *obs.Scope
}

// Validate checks the configuration for nonsensical values.  A zero Config
// is valid (everything unlimited, serial, defaults).
func (c Config) Validate() error {
	bad := func(field string, v interface{}) error {
		return fmt.Errorf("core: config: %s must not be negative (got %v)", field, v)
	}
	switch {
	case c.Timeout < 0:
		return bad("Timeout", c.Timeout)
	case c.MaxBDDNodes < 0:
		return bad("MaxBDDNodes", c.MaxBDDNodes)
	case c.MaxErrors < 0:
		return bad("MaxErrors", c.MaxErrors)
	case c.Jobs < 0:
		return bad("Jobs", c.Jobs)
	case c.ISE.MaxAlts < 0:
		return bad("ISE.MaxAlts", c.ISE.MaxAlts)
	case c.ISE.MaxTemplates < 0:
		return bad("ISE.MaxTemplates", c.ISE.MaxTemplates)
	}
	if c.Extension != nil && c.Extension.MaxVariantsPerTemplate < 0 {
		return bad("Extension.MaxVariantsPerTemplate", c.Extension.MaxVariantsPerTemplate)
	}
	return nil
}

// JobCount returns the effective parallel-compile width (at least 1).
func (c Config) JobCount() int {
	if c.Jobs < 1 {
		return 1
	}
	return c.Jobs
}

// Reporter builds a diagnostics reporter with the configured policy.
func (c Config) Reporter() *diag.Reporter {
	rep := diag.NewReporter()
	rep.SetStrict(c.Strict)
	rep.SetMaxErrors(c.MaxErrors)
	return rep
}

// Budget derives the resource budget: ctx bounds the wall clock, narrowed
// by Timeout when set.  The returned cancel func must be called when the
// run finishes (it is a no-op when Timeout is unset).
func (c Config) Budget(ctx context.Context) (*diag.Budget, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := context.CancelFunc(func() {})
	if c.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
	}
	return &diag.Budget{Ctx: ctx, MaxBDDNodes: c.MaxBDDNodes}, cancel
}

// Retarget is the RetargetOptions view of the config.  rep and budget
// come from Reporter and Budget (or the caller's own).
func (c Config) Retarget(rep *diag.Reporter, budget *diag.Budget) RetargetOptions {
	return RetargetOptions{
		ISE:         c.ISE,
		Extension:   c.Extension,
		NoExtension: c.NoExtension,
		Reporter:    rep,
		Budget:      budget,
		Obs:         c.Obs,
	}
}

// Compile is the CompileOptions view of the config.
func (c Config) Compile() CompileOptions {
	return CompileOptions{NoCompaction: c.NoCompaction, NoPeephole: c.NoPeephole, Obs: c.Obs}
}
