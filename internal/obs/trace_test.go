package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

// fakeClock steps a fixed amount per call, so traces built with it contain
// no wall-clock values at all.
func fakeClock(step time.Duration) func() time.Time {
	base := time.Unix(1000, 0)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * step)
		n++
		return t
	}
}

// TestChromeTraceGolden pins the exported Chrome trace byte-for-byte:
// stable span ordering, monotonic timestamps derived purely from the
// injected clock, args keys sorted by encoding/json.
func TestChromeTraceGolden(t *testing.T) {
	tr := NewTracer(WithClock(fakeClock(time.Millisecond)))
	scope := NewScope(nil, tr)

	root, rscope := scope.Start("retarget", KV("model", "demo"))
	ise, iscope := rscope.Start("ise")
	dest, _ := iscope.Start("ise.dest", KV("dest", "alu.acc"))
	dest.SetAttr("templates", 4)
	dest.End()
	ise.End()
	root.End()

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	want := `{
  "traceEvents": [
    {
      "name": "retarget",
      "ph": "X",
      "ts": 1000,
      "dur": 5000,
      "pid": 1,
      "tid": 1,
      "args": {
        "model": "demo"
      }
    },
    {
      "name": "ise",
      "ph": "X",
      "ts": 2000,
      "dur": 3000,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "ise.dest",
      "ph": "X",
      "ts": 3000,
      "dur": 1000,
      "pid": 1,
      "tid": 1,
      "args": {
        "dest": "alu.acc",
        "templates": 4
      }
    }
  ],
  "displayTimeUnit": "ms"
}
`
	if b.String() != want {
		t.Errorf("chrome trace mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestTraceMonotonicOrdering starts roots on separate lanes and checks the
// export preserves start order with monotonic timestamps.
func TestTraceMonotonicOrdering(t *testing.T) {
	tr := NewTracer(WithClock(fakeClock(time.Microsecond)))
	a := tr.Root("a")
	b := tr.Root("b")
	b.End()
	a.End()

	infos := tr.Snapshot()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("snapshot order wrong: %+v", infos)
	}
	if infos[0].Tid == infos[1].Tid {
		t.Errorf("independent roots share a lane: %+v", infos)
	}
	if infos[0].Start > infos[1].Start {
		t.Errorf("timestamps not monotonic: %v then %v", infos[0].Start, infos[1].Start)
	}
	for _, si := range infos {
		if !si.Ended || si.Dur < 0 {
			t.Errorf("span %s not properly ended: %+v", si.Name, si)
		}
	}
}

// TestTraceUnendedSpansSkipped keeps half-open spans out of the export so
// partial traces stay valid JSON with only complete events.
func TestTraceUnendedSpansSkipped(t *testing.T) {
	tr := NewTracer(WithClock(fakeClock(time.Millisecond)))
	done := tr.Root("done")
	done.End()
	tr.Root("open") // never ended
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `"open"`) {
		t.Errorf("unended span exported:\n%s", b.String())
	}
	if !strings.Contains(b.String(), `"done"`) {
		t.Errorf("ended span missing:\n%s", b.String())
	}
}

// TestTraceSpanCap bounds the buffer; overflow spans are counted, not
// recorded, and never crash.
func TestTraceSpanCap(t *testing.T) {
	tr := NewTracer(WithClock(fakeClock(time.Microsecond)), WithMaxSpans(2))
	for i := 0; i < 5; i++ {
		tr.Root("s").End()
	}
	if got := len(tr.Snapshot()); got != 2 {
		t.Errorf("recorded %d spans, want 2", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
}

// TestScopeRegistryOnly checks a scope without a tracer still carries the
// registry through Start.
func TestScopeRegistryOnly(t *testing.T) {
	reg := NewRegistry()
	scope := NewScope(reg, nil)
	sp, child := scope.Start("phase")
	if sp != nil {
		t.Errorf("tracerless scope produced a span")
	}
	if child.Registry() != reg {
		t.Errorf("registry lost through Start")
	}
}

// TestSpanRingOverflowCountsDrops: past the bound the ring keeps the most
// recent spans, oldest first, and counts every overwritten one.
func TestSpanRingOverflowCountsDrops(t *testing.T) {
	tr := NewTracer(WithMaxSpans(3))
	for i := 0; i < 8; i++ {
		tr.Root("span").End()
	}
	if got := tr.Dropped(); got != 5 {
		t.Fatalf("Dropped() = %d, want 5", got)
	}
	infos := tr.Snapshot()
	if len(infos) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(infos))
	}
	if infos[0].Seq != 5 || infos[2].Seq != 7 {
		t.Fatalf("ring kept seqs %d..%d, want 5..7", infos[0].Seq, infos[2].Seq)
	}
}

func TestContextScopeRoundTrip(t *testing.T) {
	scope := NewScope(nil, NewTracer())
	ctx := ContextWithScope(context.Background(), scope)
	if got := ScopeFromContext(ctx); got != scope {
		t.Fatalf("ScopeFromContext = %p, want %p", got, scope)
	}
	if got := ScopeFromContext(context.Background()); got != nil {
		t.Fatalf("empty context yielded scope %p", got)
	}
	if got := ContextWithScope(context.Background(), nil); ScopeFromContext(got) != nil {
		t.Fatal("nil scope attached to context")
	}
}
