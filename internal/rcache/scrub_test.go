package rcache

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultpoint"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// corruptFile flips one byte in the middle of the on-disk artifact so the
// frame checksum no longer matches.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScrubCleanStore(t *testing.T) {
	key, data := seedArtifact(t)
	dir := t.TempDir()
	c := newCache(t, dir, 4)
	if err := c.Ingest(key, data); err != nil {
		t.Fatal(err)
	}
	rep := c.ScrubOnce(context.Background())
	if rep.Scanned != 1 || rep.Clean != 1 || rep.Quarantined != 0 || rep.Paused {
		t.Fatalf("scrub report %+v, want 1 scanned, 1 clean", rep)
	}
	if got := metric(t, c, `record_rcache_scrub_total{outcome="clean"}`); got != 1 {
		t.Fatalf("scrub clean = %d, want 1", got)
	}
}

func TestScrubQuarantinesAndRepairs(t *testing.T) {
	key, data := seedArtifact(t)
	dir := t.TempDir()
	c := openCache(t, Options{
		Dir:        dir,
		MaxEntries: 4,
		PeerFetch: func(ctx context.Context, k string) ([]byte, error) {
			if k != key {
				t.Errorf("repair asked for %s, want %s", k, key)
			}
			return data, nil
		},
	})
	if err := c.Ingest(key, data); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(dir, key+".rart"))

	rep := c.ScrubOnce(context.Background())
	if rep.Quarantined != 1 || rep.Repaired != 1 || rep.Unrepairable != 0 {
		t.Fatalf("scrub report %+v, want 1 quarantined + 1 repaired", rep)
	}
	// The corrupt bytes survive as forensic evidence...
	if _, err := os.Stat(filepath.Join(dir, key+".quarantine")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// ...and a fresh intact copy sits where the corrupt one was.
	fixed, err := os.ReadFile(filepath.Join(dir, key+".rart"))
	if err != nil {
		t.Fatalf("repaired copy missing: %v", err)
	}
	if _, err := verifyArtifact(key, fixed); err != nil {
		t.Fatal("repaired copy does not verify")
	}
	for _, series := range []string{
		"record_rcache_corrupt_total",
		`record_rcache_scrub_total{outcome="quarantined"}`,
		`record_rcache_scrub_total{outcome="repaired"}`,
	} {
		if got := metric(t, c, series); got != 1 {
			t.Fatalf("%s = %d, want 1", series, got)
		}
	}
}

func TestScrubUnrepairableWithoutPeers(t *testing.T) {
	key, data := seedArtifact(t)
	dir := t.TempDir()
	c := newCache(t, dir, 4) // no PeerFetch
	if err := c.Ingest(key, data); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(dir, key+".rart"))

	rep := c.ScrubOnce(context.Background())
	if rep.Quarantined != 1 || rep.Unrepairable != 1 || rep.Repaired != 0 {
		t.Fatalf("scrub report %+v, want 1 quarantined + 1 unrepairable", rep)
	}
	// Quarantined, never deleted: the corrupt bytes must still exist.
	if _, err := os.Stat(filepath.Join(dir, key+".quarantine")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".rart")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt original should have been renamed away, stat err = %v", err)
	}
	if got := metric(t, c, `record_rcache_scrub_total{outcome="unrepairable"}`); got != 1 {
		t.Fatalf("scrub unrepairable = %d, want 1", got)
	}
}

func TestScrubVerifyFaultpoint(t *testing.T) {
	key, data := seedArtifact(t)
	dir := t.TempDir()
	c := newCache(t, dir, 4)
	if err := c.Ingest(key, data); err != nil {
		t.Fatal(err)
	}
	// An intact file still quarantines when the verify faultpoint fires:
	// the site stands in for any verification failure.
	faultpoint.Arm("rcache.scrub.verify", faultpoint.Action{Kind: faultpoint.KindError})
	defer faultpoint.Reset()

	rep := c.ScrubOnce(context.Background())
	if rep.Quarantined != 1 {
		t.Fatalf("scrub report %+v, want 1 quarantined via faultpoint", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".quarantine")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
}

func TestScrubPausesWhileDegraded(t *testing.T) {
	key, data := seedArtifact(t)
	dir := t.TempDir()
	c := newCache(t, dir, 4)
	if err := c.Ingest(key, data); err != nil {
		t.Fatal(err)
	}
	c.diskOff.Store(true)
	rep := c.ScrubOnce(context.Background())
	if !rep.Paused || rep.Scanned != 0 {
		t.Fatalf("scrub report %+v, want paused with nothing scanned", rep)
	}
	c.diskOff.Store(false)
	if rep := c.ScrubOnce(context.Background()); rep.Clean != 1 {
		t.Fatalf("post-recovery scrub %+v, want 1 clean", rep)
	}
}

func TestLoadDiskQuarantinesCorruptArtifact(t *testing.T) {
	key, data := seedArtifact(t)
	dir := t.TempDir()
	c := newCache(t, dir, 4)
	if err := c.Ingest(key, data); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(dir, key+".rart"))

	// A read-path discovery of the corruption must quarantine, not delete.
	if _, _, ok := c.LookupContext(context.Background(), key); ok {
		t.Fatal("corrupt artifact should not load")
	}
	if _, err := os.Stat(filepath.Join(dir, key+".quarantine")); err != nil {
		t.Fatalf("loadDisk should quarantine, not remove: %v", err)
	}
	if cr, q := metric(t, c, "record_rcache_corrupt_total"), metric(t, c, `record_rcache_scrub_total{outcome="quarantined"}`); cr != 1 || q != 1 {
		t.Fatalf("corrupt %d, quarantined %d; want 1 each", cr, q)
	}
}

func TestStartupQuarantineSweep(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"aa.quarantine", "bb.quarantine"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(Options{
		Dir:        dir,
		MaxEntries: 4,
		Obs:        obs.NewScope(obs.NewRegistry(), nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.gQuarantine.Value(); got != 2 {
		t.Fatalf("startup quarantine gauge = %d, want 2", got)
	}
}

func TestIngest(t *testing.T) {
	key, data := seedArtifact(t)

	t.Run("stores and is idempotent", func(t *testing.T) {
		dir := t.TempDir()
		c := newCache(t, dir, 4)
		if err := c.Ingest(key, data); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, key+".rart")); err != nil {
			t.Fatalf("ingested artifact not on disk: %v", err)
		}
		if err := c.Ingest(key, data); err != nil {
			t.Fatalf("duplicate ingest: %v", err)
		}
		if got := metric(t, c, `record_rcache_ingest_total{outcome="stored"}`); got != 1 {
			t.Fatalf("ingested %d, want exactly 1 (duplicate is a no-op)", got)
		}
	})

	t.Run("rejects malformed key", func(t *testing.T) {
		c := newCache(t, t.TempDir(), 4)
		if err := c.Ingest("../escape", data); err == nil {
			t.Fatal("malformed key accepted")
		}
	})

	t.Run("rejects corrupt bytes", func(t *testing.T) {
		dir := t.TempDir()
		c := newCache(t, dir, 4)
		bad := append([]byte(nil), data...)
		bad[len(bad)/2] ^= 0x40
		if err := c.Ingest(key, bad); err == nil {
			t.Fatal("corrupt push accepted")
		}
		if _, err := os.Stat(filepath.Join(dir, key+".rart")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("corrupt push must never be written, stat err = %v", err)
		}
	})

	t.Run("refuses memory-only cache", func(t *testing.T) {
		c := newCache(t, "", 0)
		if err := c.Ingest(key, data); !errors.Is(err, ErrNoStore) {
			t.Fatalf("err = %v, want ErrNoStore", err)
		}
	})

	t.Run("degraded disk refuses with typed transient error", func(t *testing.T) {
		c := newCache(t, t.TempDir(), 4)
		c.diskOff.Store(true)
		err := c.Ingest(key, data)
		var de *resilience.DegradedError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want *resilience.DegradedError", err)
		}
		if !resilience.IsTransient(err) {
			t.Fatal("degraded refusal must be transient")
		}
		if after, ok := resilience.RetryAfterOf(err); !ok || after <= 0 {
			t.Fatalf("degraded refusal should carry a Retry-After hint, got %v/%v", after, ok)
		}
	})
}
