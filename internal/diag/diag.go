// Package diag is the pipeline-wide diagnostics and resource-governance
// layer of the retargetable compiler.
//
// RECORD's premise is that the processor model is *user-written* and may be
// imperfect: encoding conflicts, bus contention, pathological interconnect.
// The paper's response is to degrade — discard the offending templates and
// keep retargeting — rather than abort.  This package carries that policy
// across the whole pipeline:
//
//   - Diagnostic / Reporter: structured, phase-tagged diagnostics with
//     severity and optional source positions, collected concurrently-safely
//     through one Reporter threaded from the HDL frontend down to the
//     driver.  A nil *Reporter is valid everywhere and discards.
//
//   - Budget: resource limits an expensive phase must honor — a wall-clock
//     deadline (via context.Context), a BDD node cap and a route cap —
//     with partial-result semantics: exceeding a budget inside one unit of
//     work drops that unit with a Warn, not the whole retarget.
//
//   - Capture / Guard: recover-to-phase-boundary helpers that convert
//     panics (BDD/bitvec invariant violations, injected faults) into
//     *PanicError values and Error diagnostics instead of crashing the
//     driver.
package diag

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
)

// Severity classifies a diagnostic.
type Severity int

// Severities, in increasing order of gravity.
const (
	Info Severity = iota
	Warn
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Pos is an optional source position; the zero value means "no position".
type Pos struct {
	Line, Col int
}

// IsValid reports whether p carries a real position.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Diagnostic is one structured finding from a pipeline phase.
type Diagnostic struct {
	Sev   Severity
	Phase string // pipeline phase tag: "hdl", "ise", "grammar", "core", ...
	Pos   Pos    // optional source position
	Msg   string
}

func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Pos.IsValid() {
		fmt.Fprintf(&b, "%s: ", d.Pos)
	}
	fmt.Fprintf(&b, "%s: [%s] %s", d.Sev, d.Phase, d.Msg)
	return b.String()
}

// Reporter collects diagnostics from every phase of one pipeline run.  All
// methods are safe for concurrent use and safe on a nil receiver (a nil
// Reporter discards everything), so call sites never need nil checks.
type Reporter struct {
	mu        sync.Mutex
	diags     []Diagnostic
	maxErrors int // 0 = unlimited
	strict    bool
	bailed    bool
	counts    [Error + 1]int
}

// NewReporter returns an empty reporter with no error cap.
func NewReporter() *Reporter { return &Reporter{} }

// SetMaxErrors caps collection: after n Error diagnostics the reporter
// bails — it records one final "too many errors" diagnostic and drops
// further reports.  n <= 0 means unlimited.
func (r *Reporter) SetMaxErrors(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxErrors = n
}

// SetStrict promotes every subsequent Warn to Error (the driver's -strict).
func (r *Reporter) SetStrict(strict bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.strict = strict
}

// Report records one diagnostic.
func (r *Reporter) Report(d Diagnostic) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bailed {
		return
	}
	if r.strict && d.Sev == Warn {
		d.Sev = Error
	}
	r.diags = append(r.diags, d)
	r.counts[d.Sev]++
	if r.maxErrors > 0 && d.Sev == Error && r.counts[Error] >= r.maxErrors {
		r.bailed = true
		r.diags = append(r.diags, Diagnostic{
			Sev: Error, Phase: d.Phase,
			Msg: fmt.Sprintf("too many errors (limit %d); further diagnostics suppressed", r.maxErrors),
		})
		r.counts[Error]++
	}
}

// Infof records an Info diagnostic.
func (r *Reporter) Infof(phase string, pos Pos, format string, args ...interface{}) {
	r.Report(Diagnostic{Sev: Info, Phase: phase, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Warnf records a Warn diagnostic (an Error under strict mode).
func (r *Reporter) Warnf(phase string, pos Pos, format string, args ...interface{}) {
	r.Report(Diagnostic{Sev: Warn, Phase: phase, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Errorf records an Error diagnostic.
func (r *Reporter) Errorf(phase string, pos Pos, format string, args ...interface{}) {
	r.Report(Diagnostic{Sev: Error, Phase: phase, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Diags returns a copy of every collected diagnostic, in report order.
func (r *Reporter) Diags() []Diagnostic {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Diagnostic, len(r.diags))
	copy(out, r.diags)
	return out
}

// Count returns how many diagnostics of severity s were collected.
func (r *Reporter) Count(s Severity) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s < 0 || s > Error {
		return 0
	}
	return r.counts[s]
}

// Warns returns the number of Warn diagnostics.
func (r *Reporter) Warns() int { return r.Count(Warn) }

// Errors returns the number of Error diagnostics.
func (r *Reporter) Errors() int { return r.Count(Error) }

// Err summarizes collected errors as a single error, or nil when none.
func (r *Reporter) Err() error {
	if n := r.Errors(); n > 0 {
		return fmt.Errorf("%d error(s) reported", n)
	}
	return nil
}

// Summary renders a one-line severity tally, e.g. "2 warnings, 1 error".
func (r *Reporter) Summary() string {
	if r == nil {
		return "no diagnostics"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var parts []string
	add := func(n int, word string) {
		if n == 1 {
			parts = append(parts, fmt.Sprintf("1 %s", word))
		} else if n > 1 {
			parts = append(parts, fmt.Sprintf("%d %ss", n, word))
		}
	}
	add(r.counts[Info], "note")
	add(r.counts[Warn], "warning")
	add(r.counts[Error], "error")
	if len(parts) == 0 {
		return "no diagnostics"
	}
	return strings.Join(parts, ", ")
}

// ----- resource budgets -------------------------------------------------

// Budget bounds the resources an expensive phase may consume.  The zero
// value and a nil *Budget mean "unlimited"; every method is nil-safe.
type Budget struct {
	// Ctx carries the wall-clock deadline (and cancellation); nil means
	// context.Background().
	Ctx context.Context
	// MaxBDDNodes caps the BDD universe size during control-signal
	// analysis; 0 = unlimited.
	MaxBDDNodes int
}

// Context returns the budget's context, never nil.
func (b *Budget) Context() context.Context {
	if b == nil || b.Ctx == nil {
		return context.Background()
	}
	return b.Ctx
}

// Exceeded returns a *BudgetError when the wall-clock deadline has passed
// (or the context was cancelled), else nil.
func (b *Budget) Exceeded() error {
	if b == nil || b.Ctx == nil {
		return nil
	}
	if err := b.Ctx.Err(); err != nil {
		return &BudgetError{Resource: "deadline", Cause: err}
	}
	return nil
}

// NodesExceeded returns a *BudgetError when the BDD universe has grown past
// the cap, else nil.
func (b *Budget) NodesExceeded(nodes int) error {
	if b == nil || b.MaxBDDNodes <= 0 || nodes <= b.MaxBDDNodes {
		return nil
	}
	return &BudgetError{
		Resource: "bdd-nodes",
		Cause:    fmt.Errorf("%d nodes exceed cap %d", nodes, b.MaxBDDNodes),
	}
}

// BudgetError marks work abandoned because a resource budget ran out;
// phases treat it as a degradation trigger, not a hard failure.
type BudgetError struct {
	Resource string // "deadline", "bdd-nodes", "routes"
	Cause    error
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("budget exhausted (%s): %v", e.Resource, e.Cause)
}

func (e *BudgetError) Unwrap() error { return e.Cause }

// ----- recovery boundaries ----------------------------------------------

// PanicError wraps a recovered panic so callers can distinguish internal
// faults (driver exit code 3) from input or resource errors.
type PanicError struct {
	Value interface{}
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("internal fault: %v", e.Value)
}

// Capture invokes fn, converting a panic into a *PanicError.  It is the
// recover-to-phase-boundary primitive: callers decide whether the failure
// degrades (drop one unit of work) or aborts (whole phase).
func Capture(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Guard runs one pipeline phase under a recovery boundary: a panic becomes
// an Error diagnostic on r (tagged with the phase) and a *PanicError return.
func Guard(r *Reporter, phase string, fn func() error) error {
	err := Capture(fn)
	if pe, ok := err.(*PanicError); ok {
		r.Errorf(phase, Pos{}, "phase crashed: %v (recovered at phase boundary)", pe.Value)
	}
	return err
}
