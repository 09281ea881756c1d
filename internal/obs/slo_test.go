package obs

import (
	"strings"
	"testing"
	"time"
)

// sloHarness builds a tracker over a settable fake clock.
func sloHarness(t *testing.T) (*SLOTracker, *Registry, *time.Time) {
	t.Helper()
	now := time.Unix(1_700_000_000, 0)
	reg := NewRegistry()
	tr := NewSLOTracker(reg, "record_recordd_slo", SLOConfig{
		Targets: map[string]time.Duration{"compile": 100 * time.Millisecond},
		Now:     func() time.Time { return now },
	})
	if tr == nil {
		t.Fatal("NewSLOTracker returned nil")
	}
	return tr, reg, &now
}

func TestSLOAllGoodBurnsNothing(t *testing.T) {
	tr, _, _ := sloHarness(t)
	for i := 0; i < 100; i++ {
		tr.Observe("compile", 10*time.Millisecond, true)
	}
	st := tr.Health()["compile"]
	if st.FastBurn != 0 || st.SlowBurn != 0 || st.Page || st.Warn {
		t.Fatalf("healthy traffic reported burn: %+v", st)
	}
	if st.Target != "100ms" {
		t.Fatalf("target = %q", st.Target)
	}
}

func TestSLOBadEventsPage(t *testing.T) {
	tr, reg, _ := sloHarness(t)
	// 10% bad against a 0.1% budget = burn 100x: far past both
	// thresholds on both windows.
	for i := 0; i < 90; i++ {
		tr.Observe("compile", 10*time.Millisecond, true)
	}
	for i := 0; i < 10; i++ {
		tr.Observe("compile", 10*time.Millisecond, false)
	}
	st := tr.Health()["compile"]
	if !st.Page || !st.Warn {
		t.Fatalf("100x burn did not alert: %+v", st)
	}
	if st.FastBurn < 99 || st.FastBurn > 101 {
		t.Fatalf("fast burn = %v, want ~100", st.FastBurn)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`record_recordd_slo_events_total{route="compile",result="bad"} 10`,
		`record_recordd_slo_events_total{route="compile",result="good"} 90`,
		`record_recordd_slo_alert{route="compile",severity="page"} 1`,
		`record_recordd_slo_burn_ppm{route="compile",window="fast"} 100000000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestSLOSlowLatencyIsBad(t *testing.T) {
	tr, _, _ := sloHarness(t)
	// Successful but over the 100ms target: burns budget.
	for i := 0; i < 10; i++ {
		tr.Observe("compile", 500*time.Millisecond, true)
	}
	st := tr.Health()["compile"]
	if st.FastBurn == 0 {
		t.Fatalf("slow successes burned nothing: %+v", st)
	}
}

func TestSLOFastWindowRecovers(t *testing.T) {
	tr, _, now := sloHarness(t)
	// A burst of failures, then two minutes of healthy traffic: the
	// fast (1m) window clears, the slow (10m) window still burns, so
	// neither alert fires (multi-window requires both).
	for i := 0; i < 10; i++ {
		tr.Observe("compile", time.Millisecond, false)
	}
	for i := 0; i < 120; i++ {
		*now = now.Add(time.Second)
		tr.Observe("compile", time.Millisecond, true)
	}
	st := tr.Health()["compile"]
	if st.FastBurn != 0 {
		t.Fatalf("fast window did not clear: %+v", st)
	}
	if st.SlowBurn == 0 {
		t.Fatalf("slow window forgot the burst: %+v", st)
	}
	if st.Page || st.Warn {
		t.Fatalf("single-window burn alerted: %+v", st)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	tr, _, now := sloHarness(t)
	for i := 0; i < 10; i++ {
		tr.Observe("compile", time.Millisecond, false)
	}
	// Beyond the slow window, even old disasters age out entirely.
	*now = now.Add(11 * time.Minute)
	tr.Observe("compile", time.Millisecond, true)
	st := tr.Health()["compile"]
	if st.FastBurn != 0 || st.SlowBurn != 0 {
		t.Fatalf("expired window still burning: %+v", st)
	}
}

// TestSLOWindowsAreOneAndTenMinutes pins the fixed burn windows: a bad
// event burns the fast window for 60 s and the slow window for 600 s.
func TestSLOWindowsAreOneAndTenMinutes(t *testing.T) {
	tr, _, now := sloHarness(t)
	start := *now
	tr.Observe("compile", time.Millisecond, false)
	for _, c := range []struct {
		after      time.Duration
		fast, slow bool
	}{
		{59 * time.Second, true, true},
		{60 * time.Second, false, true},
		{599 * time.Second, false, true},
		{600 * time.Second, false, false},
	} {
		*now = start.Add(c.after)
		st := tr.Health()["compile"]
		if (st.FastBurn > 0) != c.fast || (st.SlowBurn > 0) != c.slow {
			t.Errorf("%v after a bad event: fast burn %v, slow burn %v; want burning fast=%v slow=%v",
				c.after, st.FastBurn, st.SlowBurn, c.fast, c.slow)
		}
	}
}

func TestSLOUnknownRouteAndNilSafety(t *testing.T) {
	tr, reg, _ := sloHarness(t)
	tr.Observe("nope", time.Millisecond, true) // dropped, no panic
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `route="nope"`) {
		t.Fatal("unknown route leaked into exposition")
	}

	var nilT *SLOTracker
	nilT.Observe("compile", time.Millisecond, true)
	nilT.Refresh()
	if nilT.Health() != nil {
		t.Fatal("nil tracker returned health")
	}
	if NewSLOTracker(nil, "x", SLOConfig{Targets: map[string]time.Duration{"a": 1}}) != nil {
		t.Fatal("tracker built without registry")
	}
	if NewSLOTracker(NewRegistry(), "x", SLOConfig{}) != nil {
		t.Fatal("tracker built without targets")
	}
}
