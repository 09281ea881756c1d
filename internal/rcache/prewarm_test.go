package rcache

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

// prewarmed reads one pre-warm outcome counter.
func prewarmed(t *testing.T, c *Cache, outcome string) uint64 {
	t.Helper()
	return metric(t, c, `record_rcache_prewarm_total{outcome="`+outcome+`"}`)
}

// prewarmLoads counts keys pre-warm brought into the memory tier, from
// any tier.
func prewarmLoads(t *testing.T, c *Cache) uint64 {
	t.Helper()
	return prewarmed(t, c, "hit-disk") + prewarmed(t, c, "retargeted")
}

func TestPrewarmFromDiskAttribution(t *testing.T) {
	dir := t.TempDir()
	mdl := demoModel(t)

	// Seed the disk tier, then start a fresh instance (cold memory).
	c1 := newCache(t, dir, 0)
	e, _, err := c1.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key := e.Key

	c2 := newCache(t, dir, 0)
	if c2.InMemory(key) {
		t.Fatal("fresh cache claims key in memory")
	}
	out, err := c2.Prewarm(context.Background(), key, "", core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != Disk {
		t.Fatalf("prewarm outcome %s, want %s", out, Disk)
	}
	if !c2.InMemory(key) {
		t.Fatal("prewarm did not land in the memory tier")
	}

	// Nothing pre-warm did shows up in the serving counters.
	for _, series := range []string{memHits, diskHits, misses, retargets} {
		if got := metric(t, c2, series); got != 0 {
			t.Fatalf("prewarm leaked into serving counter %s = %d", series, got)
		}
	}
	if l, r := prewarmLoads(t, c2), prewarmed(t, c2, "retargeted"); l != 1 || r != 0 {
		t.Fatalf("prewarm attribution: %d loads, %d retargets; want 1 and 0", l, r)
	}

	// The first real request is now a memory hit.
	e2, out2, err := c2.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out2 != Mem || e2.Key != key {
		t.Fatalf("post-prewarm get: %s (key %s)", out2, e2.Key)
	}
	if got := metric(t, c2, memHits); got != 1 {
		t.Fatalf("mem hits after real hit = %d, want 1", got)
	}

	// Prewarming an already-warm key is a cheap no-op.
	if out, err := c2.Prewarm(context.Background(), key, "", core.RetargetOptions{}); err != nil || out != Mem {
		t.Fatalf("warm prewarm: %s, %v", out, err)
	}
}

func TestPrewarmRetargetsFromSource(t *testing.T) {
	c := newCache(t, "", 0)
	mdl := demoModel(t)
	key := c.Key(mdl, core.RetargetOptions{})

	out, err := c.Prewarm(context.Background(), key, mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != Miss {
		t.Fatalf("prewarm outcome %s, want %s (retargeted)", out, Miss)
	}
	if !c.InMemory(key) {
		t.Fatal("retargeting prewarm did not land in memory")
	}
	if r, m := metric(t, c, retargets), metric(t, c, misses); r != 0 || m != 0 {
		t.Fatalf("prewarm retarget counted as serving work: %d retargets, %d misses", r, m)
	}
	if r, l := prewarmed(t, c, "retargeted"), prewarmLoads(t, c); r != 1 || l != 1 {
		t.Fatalf("prewarm attribution: %d retargets, %d loads; want 1 each", r, l)
	}
	// First real request: memory hit.
	_, out2, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil || out2 != Mem {
		t.Fatalf("post-prewarm get: %s, %v", out2, err)
	}
}

func TestPrewarmNothingToWarmFrom(t *testing.T) {
	c := newCache(t, "", 0)
	key := strings.Repeat("a", 64)
	out, err := c.Prewarm(context.Background(), key, "", core.RetargetOptions{})
	if err != nil || out != Miss {
		t.Fatalf("sourceless prewarm: %s, %v", out, err)
	}
	if c.InMemory(key) || c.Len() != 0 {
		t.Fatal("skipped prewarm inserted something")
	}
	if l, r := prewarmLoads(t, c), prewarmed(t, c, "retargeted"); l != 0 || r != 0 {
		t.Fatalf("skipped prewarm counted work: %d loads, %d retargets", l, r)
	}
	if got := prewarmed(t, c, "skipped"); got != 1 {
		t.Fatalf("skipped prewarm counted %d times, want 1", got)
	}
}

func TestPrewarmRejectsBadKeys(t *testing.T) {
	c := newCache(t, "", 0)
	if _, err := c.Prewarm(context.Background(), "../../etc/passwd", "", core.RetargetOptions{}); err == nil {
		t.Fatal("malformed key accepted")
	}
	// A source that addresses a different key is a caller bug, not a
	// silent warm of the wrong artifact.
	mdl := demoModel(t)
	if _, err := c.Prewarm(context.Background(), strings.Repeat("b", 64), mdl, core.RetargetOptions{}); err == nil {
		t.Fatal("mismatched source accepted")
	}
}

func TestPrewarmCoalescesWithRealRequests(t *testing.T) {
	mdl := demoModel(t)
	ropts := core.RetargetOptions{}
	ctx := context.Background()

	t.Run("prewarm joins a real fill", func(t *testing.T) {
		c, started := newCache(t, "", 0), slowFill(t)
		real := make(chan error, 1)
		go func() {
			_, _, err := c.GetContext(ctx, mdl, ropts)
			real <- err
		}()
		waitFor(t, "the real fill to start", started)
		warm := make(chan Outcome, 1)
		go func() {
			out, err := c.Prewarm(ctx, c.Key(mdl, ropts), mdl, ropts)
			if err != nil {
				t.Error(err)
			}
			warm <- out
		}()
		waitFor(t, "the prewarm to join", func() bool { return c.fills.Merged() == 1 })
		if err := <-real; err != nil {
			t.Fatal(err)
		}
		if out := <-warm; out != Coalesced {
			t.Fatalf("prewarm during a real fill: %s, want %s", out, Coalesced)
		}
		// One fill, one retarget, and pre-warm did none of the work.
		if r := metric(t, c, retargets); r != 1 {
			t.Fatalf("%d retargets, want 1", r)
		}
		if r, i := prewarmed(t, c, "retargeted"), prewarmed(t, c, "inflight"); r != 0 || i != 1 {
			t.Fatalf("prewarm counted %d retargets and %d inflight, want 0 and 1", r, i)
		}
	})

	for _, revoked := range []bool{false, true} {
		name := "real request joins a prewarm fill"
		if revoked {
			name += " whose lease is revoked"
		}
		t.Run(name, func(t *testing.T) {
			c, started := newCache(t, "", 0), slowFill(t)
			wctx, revoke := context.WithCancel(ctx)
			defer revoke()
			warm := make(chan error, 1)
			go func() {
				_, err := c.Prewarm(wctx, c.Key(mdl, ropts), mdl, ropts)
				warm <- err
			}()
			waitFor(t, "the prewarm fill to start", started)
			type reply struct {
				e   *Entry
				out Outcome
				err error
			}
			real := make(chan reply, 1)
			go func() {
				e, out, err := c.GetContext(ctx, mdl, ropts)
				real <- reply{e, out, err}
			}()
			waitFor(t, "the real request to join", func() bool { return c.fills.Merged() == 1 })
			want := Coalesced
			if revoked {
				revoke()
				if err := <-warm; err == nil {
					t.Fatal("revoked prewarm succeeded")
				}
				want = Miss // the real request took the fill over
			}
			r := <-real
			if r.err != nil || r.e == nil {
				t.Fatalf("real request joining a prewarm fill failed: %v", r.err)
			}
			if r.out != want {
				t.Fatalf("real request outcome %s, want %s", r.out, want)
			}
			if !revoked {
				if err := <-warm; err != nil {
					t.Fatal(err)
				}
			}
			if !c.InMemory(r.e.Key) {
				t.Fatal("the fill did not land in memory")
			}
		})
	}
}
