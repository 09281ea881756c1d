// Fleet chaos harness: three real recordd processes (re-execed from this
// test binary), independent of each other, under a fleet client — then one
// of them is SIGKILLed mid-storm.  The invariants:
//
//   - a node never fetches an artifact from another: a by-key compile on a
//     non-owner answers 404, and a compile that names the model retargets
//     it there with byte-identical output;
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
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

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
	}
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

// bootFleet starts three nodes on free loopback ports, each with a cache
// directory of its own.
func bootFleet(t *testing.T) (nodes []*fleetNode, urls []string, byURL map[string]*fleetNode) {
	t.Helper()
	byURL = make(map[string]*fleetNode, 3)
	for i, a := range freeAddrs(t, 3) {
		n := &fleetNode{
			id:       fmt.Sprintf("n%d", i+1),
			addr:     a,
			url:      "http://" + a,
			cacheDir: t.TempDir(),
		}
		n.start(t)
		nodes = append(nodes, n)
		urls = append(urls, n.url)
		byURL[n.url] = n
	}
	return nodes, urls, byURL
}

func TestFleetChaosNodeKillFailover(t *testing.T) {
	skipChaos(t)
	if testing.Verbose() {
		t.Log("booting 3-node fleet")
	}
	_, urls, byURL := bootFleet(t)

	fl, err := rclient.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	fl.Policy.MaxAttempts = 5
	fl.Policy.Base = 50 * time.Millisecond
	fl.Policy.Cap = 500 * time.Millisecond

	ctx := context.Background()
	const prog = "int a = 2; int b = 3; int y; y = a + b;"
	demo := rclient.ModelRef{ModelName: "demo"}

	// Retarget through the fleet: the artifact lands on the key's ring
	// owner and is persisted in its store.
	rt, err := fl.Retarget(ctx, demo)
	if err != nil {
		t.Fatalf("fleet retarget: %v", err)
	}
	byKey := rclient.ModelRef{Key: rt.Key}

	// The client-side ring and the test agree on replica order because
	// both hash the same endpoint URLs.
	order := fleet.NewRing(fleet.DefaultVirtualNodes, urls...).Successors(rt.Key, 3)
	owner := byURL[order[0]]
	t.Logf("artifact %.12s… owned by %s", rt.Key, owner.id)

	expected, err := fl.Compile(ctx, demo, prog, rclient.CompileOptions{})
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	same := func(res *rclient.CompileResult) bool {
		return res.Listing == expected.Listing && fmt.Sprint(res.Words) == fmt.Sprint(expected.Words)
	}

	// No node-to-node path: a non-owner does not fetch the owner's copy.
	// By key it has nothing to serve; given the model it retargets.
	nonOwner := byURL[order[1]]
	direct := rclient.NewClient(nonOwner.url)
	_, err = direct.Compile(ctx, byKey, prog, rclient.CompileOptions{})
	var se *rclient.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("by-key compile on non-owner %s: %v, want 404", nonOwner.id, err)
	}
	res, err := direct.Compile(ctx, demo, prog, rclient.CompileOptions{})
	if err != nil {
		t.Fatalf("by-model compile on non-owner %s: %v", nonOwner.id, err)
	}
	if res.Cache != "miss" {
		t.Fatalf("non-owner cache outcome %q, want miss (a local retarget)", res.Cache)
	}
	if !same(res) {
		t.Fatalf("non-owner retarget output differs from the owner's")
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
			results[i], errs[i] = fl.Compile(ctx, demo, prog, rclient.CompileOptions{})
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
		if !same(results[i]) {
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
			"record_recordd_queue_depth 0",
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
	if st := fl.Breaker.State(owner.url); st != resilience.Closed {
		t.Fatalf("revived node circuit %v in client ring, want closed", st)
	}
	post, err := fl.Compile(ctx, demo, prog, rclient.CompileOptions{})
	if err != nil || !same(post) {
		t.Fatalf("post-revival fleet compile: %v", err)
	}
}
