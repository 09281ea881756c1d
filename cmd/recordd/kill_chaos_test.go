// Process chaos: a real recordd process (re-execed from this test binary)
// is SIGKILLed and restarted on the same address and cache directory.
// The invariant: what the killed process persisted, the restarted one
// serves from its crash-safe store with byte-identical output.
//
// Like the rest of the chaos harness, `go test -short` skips this.
package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"testing"
	"time"

	"repro/internal/rclient"
)

// TestMain lets this test binary double as the recordd executable: a
// child process spawned with RECORDD_TEST_CHILD=1 runs the real main(),
// so the harness exercises the daemon end to end — flags, signal
// handling, drain — not a test-only approximation.
func TestMain(m *testing.M) {
	if os.Getenv("RECORDD_TEST_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// childNode is one child recordd process under test control.
type childNode struct {
	addr     string // host:port
	url      string
	cacheDir string
	cmd      *exec.Cmd
}

// start launches the child and waits for /healthz to answer.
func (n *childNode) start(t *testing.T) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe,
		"-addr", n.addr,
		"-cache-dir", n.cacheDir,
		"-workers", "2",
		"-drain-timeout", "3s",
	)
	cmd.Env = append(os.Environ(), "RECORDD_TEST_CHILD=1")
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting recordd: %v", err)
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
	t.Fatalf("recordd at %s did not become healthy", n.url)
}

// kill SIGKILLs the child — no drain, no goodbye — and reaps it.
func (n *childNode) kill(t *testing.T) {
	t.Helper()
	if err := n.cmd.Process.Kill(); err != nil {
		t.Fatalf("killing recordd: %v", err)
	}
	_, _ = n.cmd.Process.Wait()
	n.cmd = nil
}

// freeAddr reserves a loopback port by binding and releasing it; the tiny
// race against other processes is acceptable in tests.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestChaosKillRestartServesFromDisk retargets demo on a child recordd,
// SIGKILLs it, restarts it on the same address and -cache-dir, and checks
// that a by-key compile answers from the store (hit-disk) with the
// listing and words the killed process produced.
func TestChaosKillRestartServesFromDisk(t *testing.T) {
	skipChaos(t)
	addr := freeAddr(t)
	n := &childNode{addr: addr, url: "http://" + addr, cacheDir: t.TempDir()}
	n.start(t)

	c := rclient.NewClient(n.url)
	ctx := context.Background()
	const prog = "int a = 2; int b = 3; int y; y = a + b;"
	rt, err := c.Retarget(ctx, rclient.ModelRef{ModelName: "demo"})
	if err != nil {
		t.Fatalf("retarget: %v", err)
	}
	byKey := rclient.ModelRef{Key: rt.Key}
	want, err := c.Compile(ctx, byKey, prog, rclient.CompileOptions{})
	if err != nil {
		t.Fatalf("compile before the kill: %v", err)
	}

	n.kill(t)
	n.start(t)
	got, err := c.Compile(ctx, byKey, prog, rclient.CompileOptions{})
	if err != nil {
		t.Fatalf("compile on the restarted node: %v", err)
	}
	if got.Cache != "hit-disk" {
		t.Errorf("restarted node served from %q, want hit-disk (crash-safe store)", got.Cache)
	}
	if got.Listing != want.Listing || !slices.Equal(got.Words, want.Words) {
		t.Error("restarted node output differs from the killed node's")
	}
}
