package rcache

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// seedArtifact retargets the demo model in a throwaway cache and returns
// (key, encoded artifact bytes) — the shape a fleet peer would serve.
func seedArtifact(t *testing.T) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	c := newCache(t, dir, 4)
	e, _, err := c.GetContext(context.Background(), demoModel(t), core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Encoded(e.Key)
	if err != nil {
		t.Fatal(err)
	}
	return e.Key, data
}

func TestPeerFetchSatisfiesGet(t *testing.T) {
	key, data := seedArtifact(t)

	fetches := 0
	c := openCache(t, Options{
		Dir:        t.TempDir(),
		MaxEntries: 4,
		PeerFetch: func(ctx context.Context, k string) ([]byte, error) {
			fetches++
			if k != key {
				t.Errorf("peer asked for %s, want %s", k, key)
			}
			return data, nil
		},
	})
	e, outcome, err := c.GetContext(context.Background(), demoModel(t), core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Peer {
		t.Fatalf("outcome = %s, want %s", outcome, Peer)
	}
	if !outcome.Hit() {
		t.Fatal("peer outcome should count as a hit")
	}
	if fetches != 1 {
		t.Fatalf("peer fetched %d times, want 1", fetches)
	}
	if e.Key != key {
		t.Fatalf("entry key %s, want %s", e.Key, key)
	}
	if h, r := metric(t, c, peerHits), metric(t, c, retargets); h != 1 || r != 0 {
		t.Fatalf("peer hits %d, retargets %d; want 1 peer hit and 0 retargets", h, r)
	}

	// The fetched copy must be persisted: a fresh cache over the same dir
	// serves it from disk without peers.
	if _, err := os.Stat(filepath.Join(c.opts.Dir, key+".rart")); err != nil {
		t.Fatalf("peer copy not persisted: %v", err)
	}
}

func TestPeerFetchLookupContext(t *testing.T) {
	key, data := seedArtifact(t)
	c, err := New(Options{
		Dir:        t.TempDir(),
		MaxEntries: 4,
		PeerFetch: func(ctx context.Context, k string) ([]byte, error) {
			return data, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, outcome, ok := c.LookupContext(context.Background(), key)
	if !ok || outcome != Peer {
		t.Fatalf("LookupContext = (%v, %s), want peer hit", ok, outcome)
	}
	// Second lookup is a memory hit; the peer is not consulted again.
	if _, outcome, ok = c.LookupContext(context.Background(), e.Key); !ok || outcome != Mem {
		t.Fatalf("second LookupContext = (%v, %s), want memory hit", ok, outcome)
	}
}

func TestPeerFailureDegradesToRetarget(t *testing.T) {
	for name, hook := range map[string]func(context.Context, string) ([]byte, error){
		"error":   func(context.Context, string) ([]byte, error) { return nil, errors.New("peer down") },
		"corrupt": func(context.Context, string) ([]byte, error) { return []byte("not an artifact"), nil },
		"absent":  func(context.Context, string) ([]byte, error) { return nil, nil },
	} {
		t.Run(name, func(t *testing.T) {
			c := openCache(t, Options{MaxEntries: 4, PeerFetch: hook})
			_, outcome, err := c.GetContext(context.Background(), demoModel(t), core.RetargetOptions{})
			if err != nil {
				t.Fatalf("peer %s failed the request: %v", name, err)
			}
			if outcome != Miss {
				t.Fatalf("outcome = %s, want %s (local retarget)", outcome, Miss)
			}
			if got := metric(t, c, retargets); got != 1 {
				t.Fatalf("retargets = %d, want 1", got)
			}
			fails := metric(t, c, "record_rcache_peer_errors_total")
			if name != "absent" && fails != 1 {
				t.Fatalf("peer fails = %d, want 1", fails)
			}
			if name == "absent" && fails != 0 {
				t.Fatalf("an absent peer copy counted as a failure")
			}
		})
	}
}

func TestPeerWrongKeyRejected(t *testing.T) {
	key, data := seedArtifact(t)
	c := openCache(t, Options{MaxEntries: 4, PeerFetch: func(context.Context, string) ([]byte, error) {
		return data, nil // valid artifact, but for a different key
	}})
	if _, _, ok := c.LookupContext(context.Background(), "deadbeef"+key[8:]); ok {
		t.Fatal("mismatched peer artifact was accepted")
	}
	if got := metric(t, c, "record_rcache_peer_errors_total"); got != 1 {
		t.Fatalf("peer fails = %d, want 1", got)
	}
}

func TestEncodedValidatesKey(t *testing.T) {
	c := newCache(t, t.TempDir(), 4)
	for _, bad := range []string{"", "../../etc/passwd", "ABCDEF", "zz"} {
		if _, err := c.Encoded(bad); err == nil {
			t.Errorf("Encoded(%q) accepted a malformed key", bad)
		}
	}
	key, _ := seedArtifact(t)
	if _, err := c.Encoded(key); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Encoded of absent key: %v, want ErrNotExist", err)
	}
	// Memory-only caches never serve peers.
	m := newCache(t, "", 4)
	if _, err := m.Encoded(key); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("memory-only Encoded: %v, want ErrNotExist", err)
	}
}

// TestConcurrentLookupsFetchPeerOnce: by-key lookups share one fill, so
// concurrent lookups for a key only a peer holds download, decode and
// restore it once; the rest are counted as coalesced.
func TestConcurrentLookupsFetchPeerOnce(t *testing.T) {
	key, data := seedArtifact(t)
	var fetches atomic.Int32
	release := make(chan struct{})
	c := openCache(t, Options{MaxEntries: 4, PeerFetch: func(context.Context, string) ([]byte, error) {
		fetches.Add(1)
		<-release
		return data, nil
	}})

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, ok := c.LookupContext(context.Background(), key); !ok {
				t.Error("lookup missed a key a peer holds")
			}
		}()
	}
	// Hold the fetch until every other lookup has joined it.
	waitFor(t, "the lookups to coalesce", func() bool { return c.fills.Merged() == n-1 })
	close(release)
	wg.Wait()

	if got := fetches.Load(); got != 1 {
		t.Fatalf("%d concurrent lookups fetched from a peer %d times, want 1", n, got)
	}
	if h, co := metric(t, c, peerHits), metric(t, c, coalesced); h != 1 || co != n-1 {
		t.Fatalf("%d peer hits and %d coalesced, want 1 and %d", h, co, n-1)
	}
}
