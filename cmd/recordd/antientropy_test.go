package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/antientropy"
	"repro/internal/rcache"
	"repro/internal/resilience"
)

// seedServerArtifact retargets the demo model on a server and returns
// (key, encoded bytes) — the shape a peer push carries.
func seedServerArtifact(t *testing.T, s *server, ts *httptest.Server) (string, []byte) {
	t.Helper()
	var rt retargetResponse
	code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, &rt)
	if code != http.StatusOK {
		t.Fatalf("retarget: %d %s", code, raw)
	}
	data, err := s.cache.Encoded(rt.Key)
	if err != nil {
		t.Fatal(err)
	}
	return rt.Key, data
}

func putArtifact(t *testing.T, url string, data []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestArtifactPush(t *testing.T) {
	srcS, srcTS := newTestServer(t, serverConfig{cacheDir: t.TempDir()})
	key, data := seedServerArtifact(t, srcS, srcTS)

	dst, dstTS := newTestServer(t, serverConfig{cacheDir: t.TempDir()})

	resp := putArtifact(t, dstTS.URL+"/v1/artifact/"+key, data)
	if resp.StatusCode != http.StatusNoContent {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("push: %d %s", resp.StatusCode, body)
	}
	// The replica is durable and servable onward.
	if _, err := dst.cache.Encoded(key); err != nil {
		t.Fatalf("pushed artifact not durable: %v", err)
	}
	// Idempotent: a second push is a cheap success.
	if resp := putArtifact(t, dstTS.URL+"/v1/artifact/"+key, data); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("duplicate push: %d", resp.StatusCode)
	}
}

func TestArtifactPushRejectsCorruptAndMalformed(t *testing.T) {
	srcS, srcTS := newTestServer(t, serverConfig{cacheDir: t.TempDir()})
	key, data := seedServerArtifact(t, srcS, srcTS)

	dst, dstTS := newTestServer(t, serverConfig{cacheDir: t.TempDir()})

	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x01
	if resp := putArtifact(t, dstTS.URL+"/v1/artifact/"+key, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt push: %d, want 400", resp.StatusCode)
	}
	if _, err := dst.cache.Encoded(key); err == nil {
		t.Fatal("corrupt push was persisted")
	}
	if resp := putArtifact(t, dstTS.URL+"/v1/artifact/not-a-key", data); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed-key push: %d, want 400", resp.StatusCode)
	}
}

// TestDegradedRefusalMapping pins the wire shape of a degraded-disk
// refusal without needing a real unwritable disk: 503, a Retry-After
// hint, and the "degraded" refusal kind clients branch on.
func TestDegradedRefusalMapping(t *testing.T) {
	err := &resilience.DegradedError{Resource: "disk tier", After: rcache.DegradedRetryAfter}
	if status, kind := classify(err); status != http.StatusServiceUnavailable || kind != "degraded" {
		t.Fatalf("classify(DegradedError) = %d %q, want 503 degraded", status, kind)
	}
	if after, ok := resilience.RetryAfterOf(err); !ok || after != rcache.DegradedRetryAfter {
		t.Fatalf("RetryAfterOf = %v/%v, want %v", after, ok, rcache.DegradedRetryAfter)
	}
}

func TestArtifactPushDegradedDiskRefuses(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("read-only directories do not bind as root")
	}
	srcS, srcTS := newTestServer(t, serverConfig{cacheDir: t.TempDir()})
	key, data := seedServerArtifact(t, srcS, srcTS)

	// Revoking write permission on the store directory degrades the disk
	// tier on the first write attempt (os.ErrPermission is an
	// unusable-disk condition) — the same path a full or read-only disk
	// takes in production.
	dstDir := t.TempDir()
	dst, dstTS := newTestServer(t, serverConfig{cacheDir: dstDir})
	if err := os.Chmod(dstDir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dstDir, 0o755)

	resp := putArtifact(t, dstTS.URL+"/v1/artifact/"+key, data)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded push: %d, want 503", resp.StatusCode)
	}
	if !dst.cache.Degraded() {
		t.Fatal("disk tier should be degraded")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 must carry Retry-After")
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "degraded" {
		t.Fatalf("refusal kind %q, want degraded", e.Kind)
	}
}

func TestArtifactPushDrainExempt(t *testing.T) {
	srcS, srcTS := newTestServer(t, serverConfig{cacheDir: t.TempDir()})
	key, data := seedServerArtifact(t, srcS, srcTS)

	dst, dstTS := newTestServer(t, serverConfig{cacheDir: t.TempDir()})
	dst.beginDrain()

	// New compile work is refused during drain...
	if code, _ := post(t, dstTS.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining retarget: %d, want 503", code)
	}
	// ...but an anti-entropy backfill still lands: a draining node is
	// exactly the one whose replicas are about to disappear.
	if resp := putArtifact(t, dstTS.URL+"/v1/artifact/"+key, data); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("draining push: %d, want 204", resp.StatusCode)
	}
	if _, err := dst.cache.Encoded(key); err != nil {
		t.Fatalf("backfill during drain not durable: %v", err)
	}
}

func TestInventoryEndpoint(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{cacheDir: t.TempDir()})
	key, _ := seedServerArtifact(t, s, ts)

	get := func(q string) antientropy.Inventory {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/inventory" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("inventory%s: %d", q, resp.StatusCode)
		}
		var inv antientropy.Inventory
		if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
			t.Fatal(err)
		}
		return inv
	}

	full := get("")
	if full.Total != 1 || len(full.Keys) != 1 || full.Keys[0] != key {
		t.Fatalf("inventory %+v, want the one seeded key", full)
	}
	if want := antientropy.SetDigest([]string{key}); full.Digest != want {
		t.Fatalf("digest %q, want %q", full.Digest, want)
	}

	probe := get("?limit=-1")
	if probe.Digest != full.Digest || len(probe.Keys) != 0 {
		t.Fatalf("digest probe %+v, want keyless with same digest", probe)
	}

	// Inventory stays readable during drain (GET, drain-exempt).
	s.beginDrain()
	if inv := get(""); inv.Total != 1 {
		t.Fatalf("draining inventory %+v", inv)
	}
}

// TestAntiEntropyConvergesFleet wires three real servers into a fleet
// (shared -advertise-style ring naming via httptest URLs) and checks one
// node's sweeps replicate its owned artifact to the ring successor.
func TestAntiEntropyConvergesFleet(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	var servers [3]*server
	var urls [3]string

	// Start the three listeners first so every node can be configured
	// with the others' concrete URLs.
	var tss [3]*httptest.Server
	for i := range tss {
		tss[i] = httptest.NewUnstartedServer(nil)
		tss[i].Start()
		urls[i] = tss[i].URL
		t.Cleanup(tss[i].Close)
	}
	for i := range tss {
		var peers []string
		for j := range tss {
			if j != i {
				peers = append(peers, urls[j])
			}
		}
		s, err := newServer(serverConfig{
			cacheDir:   dirs[i],
			nodeID:     urls[i],
			advertise:  urls[i],
			peers:      peers,
			aeInterval: time.Hour, // sweeps run manually below
			replicate:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		tss[i].Config.Handler = s.handler()
	}

	// Retarget on node 0: it now holds the only copy.
	var rt retargetResponse
	if code, raw := post(t, urls[0]+"/v1/retarget", map[string]string{"model_name": "demo"}, &rt); code != http.StatusOK {
		t.Fatalf("retarget: %d %s", code, raw)
	}

	// All three nodes agree on the owner because the ring members are the
	// same advertised URLs everywhere.
	owner := servers[0].ring.Owner(rt.Key)
	for i := range servers {
		if servers[i].ring.Owner(rt.Key) != owner {
			t.Fatalf("node %d disagrees on owner of %s", i, rt.Key)
		}
	}
	// Anti-entropy pushes only keys a node owns.  The retarget may have
	// landed on a non-owner, so route a by-key compile to the owner: its
	// miss-replication peer fetch pulls the artifact onto the owner's
	// disk, after which its sweeps keep the key at the replication target.
	ownerIdx := -1
	for i, u := range urls {
		if u == owner {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("owner %s is not one of the fleet URLs", owner)
	}
	if code, raw := post(t, urls[ownerIdx]+"/v1/compile", map[string]interface{}{
		"key": rt.Key, "source": "int y; y = 1;",
	}, nil); code != http.StatusOK {
		t.Fatalf("by-key compile on owner: %d %s", code, raw)
	}
	if _, err := servers[ownerIdx].cache.Encoded(rt.Key); err != nil {
		t.Fatalf("owner did not persist the replicated artifact: %v", err)
	}
	for _, s := range servers {
		if s.ae == nil {
			t.Fatal("anti-entropy agent not constructed")
		}
		s.ae.Sweep(context.Background())
	}

	holders := 0
	for i := range servers {
		if _, err := servers[i].cache.Encoded(rt.Key); err == nil {
			holders++
		}
	}
	if holders < 2 {
		t.Fatalf("artifact on %d node(s) after one sweep round, want >= 2", holders)
	}

	// Convergence is stable: another round pushes nothing new.
	for _, s := range servers {
		if rep := s.ae.Sweep(context.Background()); rep.Pushed != 0 {
			t.Fatalf("post-convergence sweep still pushed: %+v", rep)
		}
	}
}

// TestPeerHealthRule pins the one rule every peer exchange lands in the
// peer's circuit by: a transport error or a 5xx other than the typed
// degraded refusal counts against the peer; any other answer — a 404
// miss, a rejected request, a degraded refusal — counts for it.
func TestPeerHealthRule(t *testing.T) {
	var status atomic.Int64
	var kind atomic.Value
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(int(status.Load()))
		json.NewEncoder(w).Encode(errorResponse{Error: "scripted", Kind: kind.Load().(string)})
	}))
	defer peer.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	ctx := context.Background()
	for _, c := range []struct {
		peer   string
		status int
		kind   string
		open   bool
	}{
		{peer.URL, http.StatusNotFound, "", false},
		{peer.URL, http.StatusBadRequest, "", false},
		{peer.URL, http.StatusServiceUnavailable, "degraded", false},
		{peer.URL, http.StatusServiceUnavailable, "draining", true},
		{peer.URL, http.StatusInternalServerError, "", true},
		{dead.URL, 0, "", true},
	} {
		s, err := newServer(serverConfig{peers: []string{c.peer}})
		if err != nil {
			t.Fatal(err)
		}
		status.Store(int64(c.status))
		kind.Store(c.kind)
		// Three exchanges, one of each kind: three consecutive failures
		// open the circuit.
		s.peerFetch(ctx, "k")
		s.inventoryPage(ctx, c.peer, "", -1)
		s.pushTo(ctx, c.peer, "k", []byte("x"))
		if got := s.peerHealth.State(c.peer) == resilience.Open; got != c.open {
			t.Errorf("status %d kind %q: circuit open=%v, want %v", c.status, c.kind, got, c.open)
		}
	}
}
