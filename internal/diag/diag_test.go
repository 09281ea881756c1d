package diag

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilReporterIsSafe(t *testing.T) {
	var r *Reporter
	r.Warnf("ise", Pos{}, "dropped")
	r.Errorf("hdl", Pos{1, 2}, "boom")
	r.SetMaxErrors(3)
	r.SetStrict(true)
	if r.Warns() != 0 || r.Errors() != 0 || r.Err() != nil {
		t.Error("nil reporter must discard everything")
	}
	if got := r.Summary(); got != "no diagnostics" {
		t.Errorf("nil summary = %q", got)
	}
	if r.Diags() != nil {
		t.Error("nil reporter must return empty views")
	}
}

func TestReporterCountsAndOrder(t *testing.T) {
	r := NewReporter()
	r.Infof("core", Pos{}, "starting")
	r.Warnf("ise", Pos{}, "dropping destination %s", "ram.m")
	r.Errorf("hdl", Pos{3, 7}, "expected ';'")
	if r.Count(Info) != 1 || r.Warns() != 1 || r.Errors() != 1 {
		t.Fatalf("counts = %d/%d/%d", r.Count(Info), r.Warns(), r.Errors())
	}
	ds := r.Diags()
	if len(ds) != 3 || ds[1].Msg != "dropping destination ram.m" {
		t.Fatalf("diags = %v", ds)
	}
	if got := ds[2].String(); got != "3:7: error: [hdl] expected ';'" {
		t.Errorf("String() = %q", got)
	}
	if got := ds[1].String(); got != "warning: [ise] dropping destination ram.m" {
		t.Errorf("String() = %q", got)
	}
	if r.Err() == nil {
		t.Error("Err() should be non-nil with an error recorded")
	}
}

func TestStrictPromotesWarn(t *testing.T) {
	r := NewReporter()
	r.SetStrict(true)
	r.Warnf("ise", Pos{}, "dropped")
	if r.Warns() != 0 || r.Errors() != 1 {
		t.Errorf("strict: warns=%d errors=%d", r.Warns(), r.Errors())
	}
}

func TestMaxErrorsBails(t *testing.T) {
	r := NewReporter()
	r.SetMaxErrors(2)
	r.Errorf("hdl", Pos{}, "e1")
	r.Errorf("hdl", Pos{}, "e2")
	r.Errorf("hdl", Pos{}, "e3") // suppressed
	r.Warnf("ise", Pos{}, "w1")  // suppressed
	// e1, e2, plus the "too many errors" marker; e3/w1 dropped.
	if len(r.Diags()) != 3 {
		t.Errorf("diags = %v", r.Diags())
	}
	last := r.Diags()[2]
	if !strings.Contains(last.Msg, "too many errors") {
		t.Errorf("missing bail marker: %v", last)
	}
}

func TestReporterConcurrent(t *testing.T) {
	r := NewReporter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Warnf("ise", Pos{}, "w")
			}
		}()
	}
	wg.Wait()
	if r.Warns() != 800 {
		t.Errorf("warns = %d", r.Warns())
	}
}

func TestSummary(t *testing.T) {
	r := NewReporter()
	if r.Summary() != "no diagnostics" {
		t.Errorf("empty summary = %q", r.Summary())
	}
	r.Warnf("ise", Pos{}, "a")
	r.Warnf("ise", Pos{}, "b")
	r.Errorf("hdl", Pos{}, "c")
	if got := r.Summary(); got != "2 warnings, 1 error" {
		t.Errorf("summary = %q", got)
	}
}

func TestBudgetNilSafe(t *testing.T) {
	var b *Budget
	if b.Exceeded() != nil || b.NodesExceeded(1<<30) != nil {
		t.Error("nil budget must be unlimited")
	}
	if b.Context() == nil {
		t.Error("nil budget context must not be nil")
	}
}

func TestBudgetDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	b := &Budget{Ctx: ctx}
	err := b.Exceeded()
	if err == nil {
		t.Fatal("expired deadline not detected")
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "deadline" {
		t.Errorf("err = %v", err)
	}
}

func TestBudgetNodes(t *testing.T) {
	b := &Budget{MaxBDDNodes: 100}
	if b.NodesExceeded(100) != nil {
		t.Error("at-cap should pass")
	}
	if b.NodesExceeded(101) == nil {
		t.Error("over-cap not detected")
	}
}

func TestCaptureConvertsPanic(t *testing.T) {
	err := Capture(func() error { panic("invariant broken") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "invariant broken" {
		t.Fatalf("err = %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("stack missing")
	}
	if err := Capture(func() error { return nil }); err != nil {
		t.Errorf("clean fn: %v", err)
	}
	want := errors.New("plain")
	if err := Capture(func() error { return want }); err != want {
		t.Errorf("plain error not passed through: %v", err)
	}
}

func TestGuardReportsPanic(t *testing.T) {
	r := NewReporter()
	err := Guard(r, "ise", func() error { panic("kaboom") })
	if _, ok := err.(*PanicError); !ok {
		t.Fatalf("err = %v", err)
	}
	if r.Errors() != 1 || !strings.Contains(r.Diags()[0].Msg, "kaboom") {
		t.Errorf("diags = %v", r.Diags())
	}
}
