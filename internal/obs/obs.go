// Package obs is the observability layer of the retargetable compiler: a
// zero-dependency metrics registry, a hierarchical tracer, and profiling
// hooks, shared by the record CLI and the recordd service.
//
// The paper reports its results phase-by-phase — template counts,
// discarded-unsat templates, CPU seconds per pipeline phase (section 5) —
// and the production service needs the same numbers continuously.  This
// package gives both one source of truth:
//
//   - Registry: counters, gauges and fixed-bucket histograms with label
//     support.  Hot paths are single atomic operations, safe under the
//     lock-free parallel compiler; exposition renders the Prometheus text
//     format with instruments sorted by name and label values, so scrapes
//     and golden tests are deterministic.
//
//   - Tracer / Span: hierarchical spans for every pipeline phase and
//     sub-phase (per-destination ISE traversal, per-block control-flow
//     compilation, per-program compile) with attributes (route counts,
//     node counts, cache hit/miss).  A run exports as Chrome trace_event
//     JSON, loadable in chrome://tracing or Perfetto.  The clock is
//     injectable so serialized traces never depend on time.Now.
//
//   - Profiling hooks: DebugMux wires net/http/pprof (recordd
//     -debug-addr), and every span opens a runtime/trace region when
//     runtime tracing is enabled, so `go tool trace` shows pipeline
//     phases alongside scheduler events.
//
// Scope bundles a registry, a tracer and the current parent span into the
// single value threaded through core.Config into the pipeline.  Every
// type in this package is nil-safe the way diag.Reporter is: a nil
// *Scope, *Registry, *Tracer, instrument or *Span discards, so
// instrumented code needs no nil checks and uninstrumented runs pay one
// predictable branch.
//
// Instrument naming convention: record_<pkg>_<name>_<unit>, e.g.
// record_ise_templates_discarded_total, record_core_phase_seconds (see
// DESIGN.md section 10 for the full table).
package obs

import (
	"context"
	"time"
)

// Attr is one span attribute: a key with a value that must render
// deterministically (strings, integers, bools).
type Attr struct {
	Key   string
	Value interface{}
}

// KV builds an Attr.
func KV(key string, value interface{}) Attr { return Attr{Key: key, Value: value} }

// Scope bundles the registry, the tracer and the current parent span.  It
// is the one value threaded through the pipeline; derived scopes returned
// by Start parent subsequent spans under the phase that created them.
// All methods are nil-safe: a nil *Scope returns nil components, and nil
// components discard.
type Scope struct {
	reg    *Registry
	tracer *Tracer
	span   *Span
	remote SpanContext // parents the next Start when span is nil
}

// NewScope builds a scope over a registry and a tracer; either may be nil.
// A scope with neither is useless but harmless.
func NewScope(reg *Registry, tr *Tracer) *Scope {
	if reg == nil && tr == nil {
		return nil
	}
	return &Scope{reg: reg, tracer: tr}
}

// Registry returns the scope's registry, or nil.
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Tracer returns the scope's tracer, or nil.
func (s *Scope) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// Span returns the scope's current parent span, or nil.
func (s *Scope) Span() *Span {
	if s == nil {
		return nil
	}
	return s.span
}

// WithRemote returns a copy of the scope whose next Start parents its
// span under the given cross-process span context — the receiving half
// of X-Record-Trace propagation.  Invalid contexts and nil scopes return
// the receiver unchanged, so a garbage header degrades to a local trace.
func (s *Scope) WithRemote(sc SpanContext) *Scope {
	if s == nil || !sc.Valid() {
		return s
	}
	return &Scope{reg: s.reg, tracer: s.tracer, span: s.span, remote: sc}
}

// Start opens a span named name under the scope's current span (or, for
// a scope built by WithRemote, under the remote parent) and returns it
// with a derived scope that parents subsequent spans under it.  The
// caller must End the span.  On a nil scope or a scope without a tracer
// the span is nil (End and SetAttr on it are no-ops) and the returned
// scope keeps whatever registry the receiver had.
func (s *Scope) Start(name string, attrs ...Attr) (*Span, *Scope) {
	if s == nil {
		return nil, nil
	}
	if s.tracer == nil {
		return nil, s
	}
	sp := s.tracer.start(s.span, s.remote, name, attrs)
	return sp, &Scope{reg: s.reg, tracer: s.tracer, span: sp}
}

// Event records a completed child span of the scope's current span with
// the caller-measured duration — one ring write, one clock read, no End
// bookkeeping.  Pipeline stages that already time themselves for the
// phase histograms use this instead of Start/End so the per-stage tracing
// tax is a single cheap append.  Nil scopes and scopes without a tracer
// discard.
func (s *Scope) Event(name string, dur time.Duration, attrs ...Attr) {
	if s == nil || s.tracer == nil {
		return
	}
	s.tracer.event(s.span, s.remote, name, dur, attrs)
}

// scopeCtxKey keys the request-scope value in a context.
type scopeCtxKey struct{}

// ContextWithScope attaches a scope to a context so layers that already
// thread contexts (rclient legs, recordd handlers)
// can propagate the active trace without new parameters.  A nil scope
// returns ctx unchanged.
func ContextWithScope(ctx context.Context, s *Scope) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeCtxKey{}, s)
}

// ScopeFromContext returns the scope attached by ContextWithScope, or
// nil — and nil is safe to use directly, like every scope.
func ScopeFromContext(ctx context.Context) *Scope {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(scopeCtxKey{}).(*Scope)
	return s
}
