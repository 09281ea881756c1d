package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	rtrace "runtime/trace"
	"sort"
	"sync"
	"time"
)

// DefaultMaxSpans bounds a tracer's span ring; once full, new spans
// overwrite the oldest recorded ones (they still run and still open
// runtime/trace regions), so a long-lived tracer always holds the most
// recent history.
const DefaultMaxSpans = 1 << 20

// Tracer records hierarchical spans for one run.  Safe for concurrent
// use; spans started with distinct roots render on distinct Chrome trace
// lanes (tids), children share their parent's lane.  All methods are
// nil-safe.
type Tracer struct {
	mu      sync.Mutex
	now     func() time.Time
	base    time.Time
	spans   []*Span // circular once len == max; head is the oldest slot
	head    int
	events  []eventRec // value ring for one-shot events; evHead is its oldest slot
	evHead  int
	nextSeq int
	nextTid int
	max     int
	dropped int
}

// eventRec is one one-shot span in the tracer's value ring.  Events skip
// the *Span allocation entirely: the hot compile path records thousands
// of stage spans per second, and a pointer ring of that many live heap
// objects is what the GC re-scans every cycle — a flat value slice is
// one allocation total, amortized to zero.
type eventRec struct {
	name  string
	tid   int
	seq   int
	start time.Duration
	dur   time.Duration
	attrs []Attr
}

// TracerOption configures a tracer.
type TracerOption func(*Tracer)

// WithClock injects the time source (golden tests use a fake stepping
// clock, so serialized traces contain no time.Now output).
func WithClock(now func() time.Time) TracerOption {
	return func(t *Tracer) { t.now = now }
}

// WithMaxSpans overrides the span ring bound.
func WithMaxSpans(n int) TracerOption {
	return func(t *Tracer) { t.max = n }
}

// NewTracer returns a tracer whose timestamps are offsets from its
// creation instant.
func NewTracer(opts ...TracerOption) *Tracer {
	t := &Tracer{now: time.Now, max: DefaultMaxSpans}
	for _, o := range opts {
		o(t)
	}
	t.base = t.now()
	return t
}

// Span is one timed region of the pipeline.  End it exactly once; SetAttr
// before or after End.  Nil-safe.
type Span struct {
	tr     *Tracer
	name   string
	tid    int
	seq    int
	start  time.Duration
	dur    time.Duration
	ended  bool
	attrs  []Attr
	region *rtrace.Region
}

// start records a new span; nil receiver returns a nil span.  A non-nil
// parent keeps the span in the parent's lane; otherwise the span opens a
// lane of its own.  Once the ring is full the oldest recorded span is
// overwritten and counted in Dropped.
func (t *Tracer) start(parent *Span, name string, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	sp := &Span{tr: t, name: name, seq: t.nextSeq, attrs: append([]Attr(nil), attrs...)}
	t.nextSeq++
	sp.tid = t.lane(parent)
	sp.start = t.now().Sub(t.base)
	if len(t.spans) < t.max {
		t.spans = append(t.spans, sp)
	} else if t.max > 0 {
		t.spans[t.head] = sp
		t.head = (t.head + 1) % t.max
		t.dropped++
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	if rtrace.IsEnabled() {
		sp.region = rtrace.StartRegion(context.Background(), name)
	}
	return sp
}

// event records an already-measured, already-ended span in one shot: the
// caller supplies the duration it timed itself, the span's start is
// reconstructed as now-dur from one clock read, and the value ring is
// touched under one lock acquisition with no per-event heap object.
// This is the hot compile path's stage-span primitive — a fraction of
// the cost of a Start/End pair, at the price of no live runtime/trace
// region and ring order following completion order rather than start
// order.  The event ring is bounded by the same max as the span ring;
// overwrites count into Dropped.
func (t *Tracer) event(parent *Span, name string, dur time.Duration, attrs []Attr) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	rec := eventRec{name: name, dur: dur}
	if len(attrs) > 0 {
		rec.attrs = append([]Attr(nil), attrs...)
	}
	t.mu.Lock()
	rec.seq = t.nextSeq
	t.nextSeq++
	rec.tid = t.lane(parent)
	rec.start = t.now().Sub(t.base) - dur
	if len(t.events) < t.max {
		t.events = append(t.events, rec)
	} else if t.max > 0 {
		t.events[t.evHead] = rec
		t.evHead = (t.evHead + 1) % t.max
		t.dropped++
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// lane returns the Chrome trace lane (tid) of a new span: its parent's,
// or a fresh one for a root; call with t.mu held.
func (t *Tracer) lane(parent *Span) int {
	if parent != nil {
		return parent.tid
	}
	t.nextTid++
	return t.nextTid
}

// Root opens a top-level span on a new trace lane.  Prefer Scope.Start
// for pipeline code; Root is for drivers establishing the run's
// outermost span.
func (t *Tracer) Root(name string, attrs ...Attr) *Span {
	return t.start(nil, name, attrs)
}

// Name returns the span name ("" for nil).
func (sp *Span) Name() string {
	if sp == nil {
		return ""
	}
	return sp.name
}

// SetAttr attaches (or appends) an attribute.
func (sp *Span) SetAttr(key string, value interface{}) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, Value: value})
	sp.tr.mu.Unlock()
}

// End closes the span; second and later Ends are no-ops.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	if sp.region != nil {
		sp.region.End()
		sp.region = nil
	}
	t := sp.tr
	t.mu.Lock()
	if !sp.ended {
		sp.ended = true
		sp.dur = t.now().Sub(t.base) - sp.start
	}
	t.mu.Unlock()
}

// SpanInfo is the exported snapshot of one recorded span.
type SpanInfo struct {
	Name  string
	Tid   int
	Seq   int
	Start time.Duration
	Dur   time.Duration
	Ended bool
	Attrs []Attr
}

// Snapshot returns every recorded span — Start/End spans and one-shot
// events alike — in recording order (oldest surviving entry first once
// the rings have wrapped), merged by sequence number.
func (t *Tracer) Snapshot() []SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanInfo, 0, len(t.spans)+len(t.events))
	for i := 0; i < len(t.spans); i++ {
		sp := t.spans[(t.head+i)%len(t.spans)]
		out = append(out, SpanInfo{
			Name: sp.name, Tid: sp.tid, Seq: sp.seq,
			Start: sp.start, Dur: sp.dur, Ended: sp.ended,
			Attrs: append([]Attr(nil), sp.attrs...),
		})
	}
	for i := 0; i < len(t.events); i++ {
		ev := &t.events[(t.evHead+i)%len(t.events)]
		out = append(out, SpanInfo{
			Name: ev.name, Tid: ev.tid, Seq: ev.seq,
			Start: ev.start, Dur: ev.dur, Ended: true,
			Attrs: append([]Attr(nil), ev.attrs...),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dropped returns how many recorded spans were overwritten (or, with a
// zero ring, never stored) past the ring bound.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// chromeEvent is one Chrome trace_event complete ("X") event.  Field
// order fixes the serialized key order, keeping golden traces stable.
type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   int64                  `json:"ts"` // µs since trace start
	Dur  int64                  `json:"dur"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace serializes every ended span as Chrome trace_event
// JSON, loadable in chrome://tracing and Perfetto.  Events appear in span
// start order (the recording order), timestamps are microsecond offsets
// from the tracer's start — derived purely from the (injectable) clock —
// and args keys serialize sorted, so output for a fixed span history is
// byte-stable.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: no tracer")
	}
	infos := t.Snapshot()
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for _, si := range infos {
		if !si.Ended {
			continue
		}
		ev := chromeEvent{
			Name: si.Name, Ph: "X",
			Ts:  si.Start.Microseconds(),
			Dur: si.Dur.Microseconds(),
			Pid: 1, Tid: si.Tid,
		}
		if len(si.Attrs) > 0 {
			ev.Args = make(map[string]interface{}, len(si.Attrs))
			for _, a := range si.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
