// Fleet chaos harness: three real recordd processes (re-execed from this
// test binary), cross-wired as peers, under a fleet client — then one of
// them is SIGKILLed mid-storm.  The invariants:
//
//   - a by-key compile on a non-owner node replicates the artifact from
//     the owner instead of 404ing (cross-node hit visible in the
//     node-labelled metrics on both sides);
//   - every storm request completes through failover with byte-identical
//     output after the routing primary is SIGKILLed;
//   - surviving nodes' metrics agree with a quiesced fleet;
//   - the killed node restarts on the same address and cache directory,
//     serves from its crash-safe store, and rejoins the client's ring.
//
// Like the single-node chaos harness, `go test -short` skips this.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/fleet"
	"repro/internal/rclient"
	"repro/internal/resilience"
)

// TestMain lets this test binary double as the recordd executable: a
// child process spawned with RECORDD_FLEET_CHILD=1 runs the real main(),
// so the fleet harness exercises the daemon end to end — flags, signal
// handling, drain — not a test-only approximation.
func TestMain(m *testing.M) {
	if os.Getenv("RECORDD_FLEET_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// fleetNode is one child recordd process under test control.
type fleetNode struct {
	id       string
	addr     string // host:port
	url      string
	cacheDir string
	peers    []string
	extra    []string // additional flags (scrub/anti-entropy tuning)
	cmd      *exec.Cmd
}

// start launches the child and waits for /healthz to answer.
func (n *fleetNode) start(t *testing.T) {
	t.Helper()
	args := []string{
		"-addr", n.addr,
		"-node-id", n.id,
		"-cache-dir", n.cacheDir,
		"-workers", "2",
		"-drain-timeout", "3s",
		"-peers", strings.Join(n.peers, ","),
	}
	args = append(args, n.extra...)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "RECORDD_FLEET_CHILD=1")
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting node %s: %v", n.id, err)
	}
	n.cmd = cmd
	t.Cleanup(func() {
		if n.cmd != nil && n.cmd.Process != nil {
			_ = n.cmd.Process.Kill()
			_, _ = n.cmd.Process.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(n.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("node %s (%s) did not become healthy", n.id, n.url)
}

// kill SIGKILLs the child — no drain, no goodbye — and reaps it.
func (n *fleetNode) kill(t *testing.T) {
	t.Helper()
	if err := n.cmd.Process.Kill(); err != nil {
		t.Fatalf("killing node %s: %v", n.id, err)
	}
	_, _ = n.cmd.Process.Wait()
	n.cmd = nil
}

// freeAddrs reserves n distinct loopback ports by binding and releasing
// them; the tiny race against other processes is acceptable in tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// scrape fetches a node's /metrics exposition.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scraping %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricLine matches an exposition line for name with the given label
// pairs (in any order) and a non-zero value.
func metricLine(body, name string, labels ...string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(line, l) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if m := regexp.MustCompile(`\} ([0-9.e+]+)$`).FindStringSubmatch(line); m != nil && m[1] != "0" {
			return true
		}
	}
	return false
}

func TestFleetChaosNodeKillFailover(t *testing.T) {
	skipChaos(t)
	if testing.Verbose() {
		t.Log("booting 3-node fleet")
	}

	addrs := freeAddrs(t, 3)
	urls := make([]string, 3)
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	nodes := make([]*fleetNode, 3)
	for i := range nodes {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		nodes[i] = &fleetNode{
			id:       fmt.Sprintf("n%d", i+1),
			addr:     addrs[i],
			url:      urls[i],
			cacheDir: t.TempDir(),
			peers:    peers,
		}
		nodes[i].start(t)
	}
	byURL := make(map[string]*fleetNode, 3)
	for _, n := range nodes {
		byURL[n.url] = n
	}

	fl, err := rclient.NewFleet(urls)
	if err != nil {
		t.Fatal(err)
	}
	fl.Policy.MaxAttempts = 5
	fl.Policy.Base = 50 * time.Millisecond
	fl.Policy.Cap = 500 * time.Millisecond
	fl.HedgeDelay = -1 // failover only; hedging has its own unit tests

	ctx := context.Background()
	const prog = "int a = 2; int b = 3; int y; y = a + b;"

	// Retarget through the fleet: the artifact lands on the key's ring
	// owner and is persisted in its store.
	rt, err := fl.Retarget(ctx, rclient.ModelRef{ModelName: "demo"})
	if err != nil {
		t.Fatalf("fleet retarget: %v", err)
	}
	byKey := rclient.ModelRef{Key: rt.Key}

	// The client-side ring and the test agree on replica order because
	// both hash the same endpoint URLs.
	order := fleet.NewRing(fleet.DefaultVirtualNodes, urls...).Successors(rt.Key, 3)
	owner := byURL[order[0]]
	t.Logf("artifact %.12s… owned by %s", rt.Key, owner.id)

	expected, err := fl.Compile(ctx, byKey, prog, rclient.CompileOptions{})
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}

	// Cross-node replication: a by-key compile sent directly to a
	// non-owner must succeed by fetching the encoded artifact from a
	// peer, and the transfer must be visible in node-labelled metrics on
	// both ends.
	nonOwner := byURL[order[1]]
	direct := rclient.NewClient(nonOwner.url)
	res, err := direct.Compile(ctx, byKey, prog, rclient.CompileOptions{})
	if err != nil {
		t.Fatalf("by-key compile on non-owner %s: %v", nonOwner.id, err)
	}
	if res.Cache != "hit-peer" {
		t.Fatalf("non-owner cache outcome %q, want hit-peer", res.Cache)
	}
	if !metricLine(scrape(t, nonOwner.url), "record_recordd_peer_fetch_total",
		`node="`+nonOwner.id+`"`, `outcome="hit"`) {
		t.Fatalf("non-owner %s shows no node-labelled peer fetch hit", nonOwner.id)
	}
	if !metricLine(scrape(t, owner.url), "record_recordd_artifact_serves_total",
		`node="`+owner.id+`"`, `outcome="hit"`) {
		t.Fatalf("owner %s shows no node-labelled artifact serve", owner.id)
	}

	// Storm, with a real SIGKILL of the routing primary mid-batch.  Every
	// request must complete via failover with byte-identical output.
	const storms = 24
	results := make([]*rclient.CompileResult, storms)
	errs := make([]error, storms)
	var wg sync.WaitGroup
	for i := 0; i < storms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 25 * time.Millisecond) // spread across the kill
			results[i], errs[i] = fl.Compile(ctx, byKey, prog, rclient.CompileOptions{})
		}(i)
	}
	time.Sleep(150 * time.Millisecond)
	owner.kill(t)
	t.Logf("SIGKILLed %s mid-batch", owner.id)
	wg.Wait()

	for i := range results {
		if errs[i] != nil {
			t.Fatalf("storm request %d failed despite failover: %v", i, errs[i])
		}
		if results[i].Listing != expected.Listing || fmt.Sprint(results[i].Words) != fmt.Sprint(expected.Words) {
			t.Fatalf("storm request %d output differs from pre-kill reference", i)
		}
	}

	// Surviving nodes' metrics agree with a quiesced fleet: correct node
	// identity, nothing in flight, nothing queued.
	for _, u := range order[1:] {
		n := byURL[u]
		body := scrape(t, u)
		if !metricLine(body, "record_recordd_node_info", `node="`+n.id+`"`) {
			t.Errorf("node %s does not report its node_info metric", n.id)
		}
		for _, want := range []string{
			"record_recordd_inflight_compiles 0",
			`record_recordd_queue_depth{class="batch"} 0`,
			`record_recordd_queue_depth{class="interactive"} 0`,
		} {
			if !strings.Contains(body, want) {
				t.Errorf("node %s not quiesced: missing %q", n.id, want)
			}
		}
	}

	// Revive the killed node on the same address and store.  Its
	// crash-safe cache must still hold the artifact, and the fleet
	// client's ring must route to it again after one Healthz.
	owner.start(t)
	revived := rclient.NewClient(owner.url)
	res, err = revived.Compile(ctx, byKey, prog, rclient.CompileOptions{})
	if err != nil {
		t.Fatalf("compile on revived %s: %v", owner.id, err)
	}
	if res.Cache != "hit-disk" {
		t.Errorf("revived node served from %q, want hit-disk (crash-safe store)", res.Cache)
	}
	if res.Listing != expected.Listing {
		t.Error("revived node output differs from reference")
	}
	if err := fl.Healthz(ctx); err != nil {
		t.Fatalf("fleet health check: %v", err)
	}
	if st := fl.States()[owner.url]; st != resilience.Closed {
		t.Fatalf("revived node circuit %v in client ring, want closed", st)
	}
	post, err := fl.Compile(ctx, byKey, prog, rclient.CompileOptions{})
	if err != nil || post.Listing != expected.Listing {
		t.Fatalf("post-revival fleet compile: %v", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// gaugeValue extracts a bare (unlabelled) integer gauge from an
// exposition, or -1 if the metric is absent.
func gaugeValue(body, name string) int {
	m := regexp.MustCompile(`(?m)^` + name + ` ([0-9]+)$`).FindStringSubmatch(body)
	if m == nil {
		return -1
	}
	v, _ := strconv.Atoi(m[1])
	return v
}

// counterValue extracts the value of the first exposition line for name
// carrying all the given label pairs, or -1 if none matches.
func counterValue(body, name string, labels ...string) int {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(line, l) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if m := regexp.MustCompile(`\} ([0-9]+)$`).FindStringSubmatch(line); m != nil {
			v, _ := strconv.Atoi(m[1])
			return v
		}
	}
	return -1
}

// corruptOnDisk flips one byte in the middle of a stored artifact — the
// frame checksum no longer matches, exactly what slow bit rot produces.
func corruptOnDisk(t *testing.T, path string) {
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

// TestFleetChaosScrubRepair exercises the self-healing path end to end:
// three recordd processes with fast anti-entropy and scrub cycles
// converge on two replicas per artifact, then every artifact's on-disk
// copy is bit-flipped on its shard owner mid-storm.  Invariants:
//
//   - every storm request completes with byte-identical output — the
//     memory tier and the peer replicas mask the disk corruption;
//   - the scrubber quarantines each corrupt file (renamed aside, never
//     deleted) and lands an intact replacement fetched from a peer
//     within a scrub cycle or two;
//   - scrub and quarantine metrics agree with the observed file state on
//     every victim, and the replication-factor gauge sits back at the
//     -replicate target once healed.
func TestFleetChaosScrubRepair(t *testing.T) {
	skipChaos(t)
	if testing.Verbose() {
		t.Log("booting 3-node self-healing fleet")
	}

	addrs := freeAddrs(t, 3)
	urls := make([]string, 3)
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	nodes := make([]*fleetNode, 3)
	for i := range nodes {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		nodes[i] = &fleetNode{
			id:       fmt.Sprintf("n%d", i+1),
			addr:     addrs[i],
			url:      urls[i],
			cacheDir: t.TempDir(),
			peers:    peers,
			// -advertise makes every node build its ring over the same
			// member URLs (cross-node ownership agreement); scrubbing and
			// anti-entropy run at test speed.
			extra: []string{
				"-advertise", urls[i],
				"-replicate", "2",
				"-anti-entropy-interval", "250ms",
				"-scrub-interval", "400ms",
				"-scrub-rate", "1000",
			},
		}
		nodes[i].start(t)
	}
	byURL := make(map[string]*fleetNode, 3)
	for _, n := range nodes {
		byURL[n.url] = n
	}

	fl, err := rclient.NewFleet(urls)
	if err != nil {
		t.Fatal(err)
	}
	fl.Policy.MaxAttempts = 5
	fl.Policy.Base = 50 * time.Millisecond
	fl.Policy.Cap = 500 * time.Millisecond
	fl.HedgeDelay = -1

	ctx := context.Background()
	const prog = "int a = 2; int b = 3; int y; y = a + b;"
	ring := fleet.NewRing(fleet.DefaultVirtualNodes, urls...)

	// Three distinct models → three distinct artifacts spread over the
	// ring.  The by-key compile routes to each key's owner, so the owner
	// ends up holding a durable copy (miss-replication pulls it over if
	// the retarget landed elsewhere); its anti-entropy sweeps then push
	// the key to the ring successor.
	type target struct {
		key     string
		owner   *fleetNode
		listing string
	}
	var targets []*target
	for _, model := range []string{"demo", "manocpu", "tanenbaum"} {
		rt, err := fl.Retarget(ctx, rclient.ModelRef{ModelName: model})
		if err != nil {
			t.Fatalf("retarget %s: %v", model, err)
		}
		res, err := fl.Compile(ctx, rclient.ModelRef{Key: rt.Key}, prog, rclient.CompileOptions{})
		if err != nil {
			t.Fatalf("reference compile on %s: %v", model, err)
		}
		targets = append(targets, &target{key: rt.Key, owner: byURL[ring.Owner(rt.Key)], listing: res.Listing})
	}

	holders := func(key string) int {
		n := 0
		for _, nd := range nodes {
			if _, err := os.Stat(filepath.Join(nd.cacheDir, key+".rart")); err == nil {
				n++
			}
		}
		return n
	}
	waitFor(t, 20*time.Second, "anti-entropy to reach 2 replicas per key", func() bool {
		for _, tg := range targets {
			if _, err := os.Stat(filepath.Join(tg.owner.cacheDir, tg.key+".rart")); err != nil {
				return false
			}
			if holders(tg.key) < 2 {
				return false
			}
		}
		return true
	})
	if testing.Verbose() {
		for _, tg := range targets {
			t.Logf("artifact %.12s… owned by %s, %d replicas", tg.key, tg.owner.id, holders(tg.key))
		}
	}

	// Storm the fleet, bit-flipping every owner's on-disk copy mid-batch.
	const storms = 24
	results := make([]*rclient.CompileResult, storms)
	errs := make([]error, storms)
	var wg sync.WaitGroup
	for i := 0; i < storms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 25 * time.Millisecond) // spread across the corruption
			tg := targets[i%len(targets)]
			results[i], errs[i] = fl.Compile(ctx, rclient.ModelRef{Key: tg.key}, prog, rclient.CompileOptions{})
		}(i)
	}
	time.Sleep(150 * time.Millisecond)
	for _, tg := range targets {
		corruptOnDisk(t, filepath.Join(tg.owner.cacheDir, tg.key+".rart"))
	}
	t.Logf("bit-flipped %d artifacts on their shard owners mid-batch", len(targets))
	wg.Wait()

	for i := range results {
		if errs[i] != nil {
			t.Fatalf("storm request %d failed despite corruption: %v", i, errs[i])
		}
		if results[i].Listing != targets[i%len(targets)].listing {
			t.Fatalf("storm request %d output differs from pre-corruption reference", i)
		}
	}

	// The scrubber must quarantine every corrupt file — renamed aside as
	// forensic evidence, never deleted — and repair an intact copy into
	// its place from a peer replica.
	waitFor(t, 30*time.Second, "scrub to quarantine and repair every corrupted artifact", func() bool {
		for _, tg := range targets {
			dir := tg.owner.cacheDir
			if _, err := os.Stat(filepath.Join(dir, tg.key+".quarantine")); err != nil {
				return false
			}
			data, err := os.ReadFile(filepath.Join(dir, tg.key+".rart"))
			if err != nil {
				return false
			}
			if a, err := artifact.Decode(data); err != nil || a.Key != tg.key {
				return false
			}
		}
		return true
	})

	// Metrics agree with the file state on every victim.  Gauges refresh
	// once per sweep/scrub cycle, so poll briefly rather than racing them.
	victims := map[*fleetNode][]string{}
	for _, tg := range targets {
		victims[tg.owner] = append(victims[tg.owner], tg.key)
	}
	waitFor(t, 15*time.Second, "victim metrics to agree with on-disk state", func() bool {
		for nd, keys := range victims {
			body := scrape(t, nd.url)
			if counterValue(body, "record_rcache_scrub_total", `outcome="repaired"`) < len(keys) {
				return false
			}
			quarantined, _ := filepath.Glob(filepath.Join(nd.cacheDir, "*.quarantine"))
			if gaugeValue(body, "record_rcache_quarantined_files") != len(quarantined) {
				return false
			}
			// Every key this victim owns is whole again across the fleet.
			if gaugeValue(body, "record_recordd_replication_factor") < 2 {
				return false
			}
		}
		return true
	})

	// Healed fleet: byte-identical output for every key, quarantine
	// evidence still on disk.
	for _, tg := range targets {
		res, err := fl.Compile(ctx, rclient.ModelRef{Key: tg.key}, prog, rclient.CompileOptions{})
		if err != nil {
			t.Fatalf("post-heal compile for %.12s…: %v", tg.key, err)
		}
		if res.Listing != tg.listing {
			t.Fatalf("post-heal output for %.12s… differs from reference", tg.key)
		}
		if _, err := os.Stat(filepath.Join(tg.owner.cacheDir, tg.key+".quarantine")); err != nil {
			t.Fatalf("quarantine evidence for %.12s… was deleted: %v", tg.key, err)
		}
	}
}
