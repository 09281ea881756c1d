package rcache

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// spanNames collects the names of all ended spans in start order.
func spanNames(tr *obs.Tracer) []string {
	var names []string
	for _, si := range tr.Snapshot() {
		names = append(names, si.Name)
	}
	return names
}

// TestCacheHitTrace is the end-to-end trace contract of the cache: a
// request served from the memory tier produces a trace containing a
// cache.hit span and none of the retarget pipeline spans — the trace alone
// proves no ISE work ran.
func TestCacheHitTrace(t *testing.T) {
	c := newCache(t, "", 0)
	mdl := demoModel(t)

	// Cold request: its trace must show the full pipeline.
	cold := obs.NewTracer()
	ropts := core.RetargetOptions{Obs: obs.NewScope(obs.NewRegistry(), cold)}
	if _, out, err := c.GetContext(context.Background(), mdl, ropts); err != nil || out != Miss {
		t.Fatalf("cold get: outcome %s, err %v", out, err)
	}
	coldNames := map[string]bool{}
	for _, n := range spanNames(cold) {
		coldNames[n] = true
	}
	for _, want := range []string{"rcache.get", "retarget", "ise", "ise.dest"} {
		if !coldNames[want] {
			t.Errorf("cold trace missing %q span: %v", want, spanNames(cold))
		}
	}
	if coldNames["cache.hit"] {
		t.Errorf("cold trace claims a cache hit: %v", spanNames(cold))
	}

	// Warm request with a fresh tracer: cache.hit, and no pipeline work.
	warm := obs.NewTracer()
	ropts = core.RetargetOptions{Obs: obs.NewScope(obs.NewRegistry(), warm)}
	if _, out, err := c.GetContext(context.Background(), mdl, ropts); err != nil || out != Mem {
		t.Fatalf("warm get: outcome %s, err %v", out, err)
	}
	names := spanNames(warm)
	hit := false
	for _, n := range names {
		switch n {
		case "cache.hit":
			hit = true
		case "retarget", "ise", "ise.dest", "frontend", "extend", "grammar", "burs", "freeze":
			t.Errorf("warm trace ran pipeline span %q: %v", n, names)
		}
	}
	if !hit {
		t.Errorf("warm trace has no cache.hit span: %v", names)
	}
}

// TestCacheCounters checks the cache's counters as a caller-supplied
// registry sees them.
func TestCacheCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Options{Obs: obs.NewScope(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	mdl := demoModel(t)
	for i := 0; i < 3; i++ {
		if _, _, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("record_rcache_misses_total", "").Value(); got != 1 {
		t.Errorf("misses counter = %d, want 1", got)
	}
	if got := reg.CounterVec("record_rcache_hits_total", "", "tier").With("mem").Value(); got != 2 {
		t.Errorf("mem hits counter = %d, want 2", got)
	}
	if got := reg.Counter("record_rcache_retargets_total", "").Value(); got != 1 {
		t.Errorf("retargets counter = %d, want 1", got)
	}
}
