package rcache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/faultpoint"
	"repro/internal/models"
	"repro/internal/obs"
)

func demoModel(t testing.TB) string {
	t.Helper()
	mdl, ok := models.Get("demo")
	if !ok {
		t.Fatal("demo model missing")
	}
	return mdl
}

func newCache(t testing.TB, dir string, max int) *Cache {
	t.Helper()
	return openCache(t, Options{Dir: dir, MaxEntries: max})
}

// openCache builds a cache whose counters land in a registry of its own,
// so metric can read them.
func openCache(t testing.TB, opts Options) *Cache {
	t.Helper()
	if opts.Obs == nil {
		opts.Obs = obs.NewScope(obs.NewRegistry(), nil)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// metric reads one series of the cache's registry as /metrics shows it,
// e.g. metric(t, c, `record_rcache_hits_total{tier="mem"}`); an absent
// series reads as zero.
func metric(t testing.TB, c *Cache, series string) uint64 {
	t.Helper()
	var b strings.Builder
	if err := c.opts.Obs.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, v)
			}
			return n
		}
	}
	return 0
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// slowFill arms a one-shot delay inside the next retarget (the
// ise.extract faultpoint), so a second caller can be made to arrive
// mid-fill; the returned func reports whether a fill has reached it.
func slowFill(t *testing.T) (started func() bool) {
	faultpoint.Arm("ise.extract", faultpoint.Action{Kind: faultpoint.KindDelay, Delay: 300 * time.Millisecond})
	t.Cleanup(faultpoint.Reset)
	return func() bool { return len(faultpoint.Armed()) == 0 }
}

// seedArtifact retargets the demo model into a throwaway store and
// returns (key, encoded artifact bytes) as they sit on disk.
func seedArtifact(t *testing.T) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	c := newCache(t, dir, 4)
	e, _, err := c.GetContext(context.Background(), demoModel(t), core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, e.Key+".rart"))
	if err != nil {
		t.Fatal(err)
	}
	return e.Key, data
}

// storeWith returns a fresh cache over a store holding data under key.
func storeWith(t *testing.T, key string, data []byte) *Cache {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, key+".rart"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return newCache(t, dir, 4)
}

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

const (
	memHits   = `record_rcache_hits_total{tier="mem"}`
	diskHits  = `record_rcache_hits_total{tier="disk"}`
	misses    = "record_rcache_misses_total"
	retargets = "record_rcache_retargets_total"
	coalesced = "record_rcache_coalesced_total"
)

func TestMemoryTier(t *testing.T) {
	c := newCache(t, "", 0) // memory-only
	mdl := demoModel(t)

	e1, out, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != Miss {
		t.Fatalf("first get: %s, want miss", out)
	}
	e2, out, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != Mem || e2 != e1 {
		t.Fatalf("second get: %s (same entry: %t), want memory hit of same entry", out, e2 == e1)
	}
	if r, h, m := metric(t, c, retargets), metric(t, c, memHits), metric(t, c, misses); r != 1 || h != 1 || m != 1 {
		t.Fatalf("retargets %d, mem hits %d, misses %d; want 1 each", r, h, m)
	}
}

func TestDiskTierAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	mdl := demoModel(t)

	c1 := newCache(t, dir, 0)
	if _, out, err := c1.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil || out != Miss {
		t.Fatalf("warm: %v %s", err, out)
	}

	// A fresh cache (new process) finds the artifact on disk.
	c2 := newCache(t, dir, 0)
	e, out, err := c2.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out != Disk {
		t.Fatalf("fresh instance: %s, want disk hit", out)
	}
	if metric(t, c2, retargets) != 0 {
		t.Fatal("disk hit counted as a retarget of the request's source")
	}
	// The restored target compiles.
	res, err := e.Compile(context.Background(), "int a = 2; int b = 3; int y; y = a + b;", core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CodeLen() == 0 {
		t.Fatal("empty program from disk-tier target")
	}
}

func TestCorruptAndTruncatedArtifacts(t *testing.T) {
	mdl := demoModel(t)
	for name, mangle := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/3] },
		"garbage":   func([]byte) []byte { return []byte("recordart 1 feedface\nnot json") },
		"empty":     func([]byte) []byte { return nil },
		"bitflip": func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[len(b)-5] ^= 1
			return b
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c1 := newCache(t, dir, 0)
			if _, _, err := c1.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil {
				t.Fatal(err)
			}
			key := c1.Key(mdl, core.RetargetOptions{})
			path := filepath.Join(dir, key+".rart")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			rep := diag.NewReporter()
			c2 := openCache(t, Options{Dir: dir, Reporter: rep})
			_, out, err := c2.GetContext(context.Background(), mdl, core.RetargetOptions{})
			if err != nil {
				t.Fatalf("corrupt artifact became an error: %v", err)
			}
			if out != Miss {
				t.Fatalf("corrupt artifact: %s, want miss", out)
			}
			if cr, r := metric(t, c2, "record_rcache_corrupt_total"), metric(t, c2, retargets); cr != 1 || r != 1 {
				t.Fatalf("corrupt %d, retargets %d; want 1 each", cr, r)
			}
			if rep.Warns() == 0 {
				t.Fatal("no corruption warning reported")
			}
			found := false
			for _, d := range rep.Diags() {
				if strings.Contains(d.Msg, "corrupt") {
					found = true
				}
			}
			if !found {
				t.Fatalf("warning does not mention corruption: %v", rep.Diags())
			}
			// The bad file was replaced by a good one.
			c3 := newCache(t, dir, 0)
			if _, out, err := c3.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil || out != Disk {
				t.Fatalf("store not repaired: %v %s", err, out)
			}
		})
	}
}

func TestSingleflight(t *testing.T) {
	c := newCache(t, t.TempDir(), 0)
	mdl := demoModel(t)

	const n = 16
	var wg sync.WaitGroup
	entries := make([]*Entry, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i], _, errs[i] = c.GetContext(context.Background(), mdl, core.RetargetOptions{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if entries[i] == nil {
			t.Fatalf("request %d got nil entry", i)
		}
	}
	if got := metric(t, c, retargets); got != 1 {
		t.Fatalf("%d concurrent gets ran %d retargets, want 1", n, got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache(t, "", 2)
	// Distinct keys via distinct option fingerprints on one model.
	mdl := demoModel(t)
	get := func(maxAlts int) {
		opts := core.RetargetOptions{}
		opts.ISE.MaxAlts = maxAlts
		if _, _, err := c.GetContext(context.Background(), mdl, opts); err != nil {
			t.Fatal(err)
		}
	}
	get(100)
	get(101)
	get(102) // evicts the first
	if c.Len() != 2 {
		t.Fatalf("memory tier holds %d entries, cap 2", c.Len())
	}
	if got := metric(t, c, "record_rcache_evictions_total"); got != 1 {
		t.Fatalf("evictions %d, want 1", got)
	}
	get(100) // must retarget again (memory-only cache)
	if got := metric(t, c, retargets); got != 4 {
		t.Fatalf("retargets %d, want 4", got)
	}
}

func TestLookupByKey(t *testing.T) {
	dir := t.TempDir()
	mdl := demoModel(t)
	c1 := newCache(t, dir, 0)
	e, _, err := c1.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if e, _, err := c1.LookupContext(ctx, "no-such-key"); e != nil || err != nil {
		t.Fatal("unknown key resolved")
	}
	if got, out, err := c1.LookupContext(ctx, e.Key); err != nil || got != e || out != Mem {
		t.Fatal("memory lookup failed")
	}
	c2 := newCache(t, dir, 0)
	if got, out, err := c2.LookupContext(ctx, e.Key); err != nil || got == nil || out != Disk {
		t.Fatal("disk lookup failed")
	}
}

// TestLookupRejectsKeyOutsideStore: a caller-supplied key that is not a
// content address never names a file, so a lookup cannot read — or
// quarantine — anything outside the store.
func TestLookupRejectsKeyOutsideStore(t *testing.T) {
	root := t.TempDir()
	outside := filepath.Join(root, "victim.rart")
	if err := os.WriteFile(outside, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := newCache(t, filepath.Join(root, "store"), 0)
	if e, _, err := c.LookupContext(context.Background(), "../victim"); e != nil || err != nil {
		t.Fatal("a path resolved as a key")
	}
	if _, err := os.Stat(outside); err != nil {
		t.Fatalf("lookup touched a file outside the store: %v", err)
	}
}

func TestDistinctModelsDistinctEntries(t *testing.T) {
	c := newCache(t, "", 0)
	var keys []string
	for _, name := range []string{"demo", "ref"} {
		mdl, ok := models.Get(name)
		if !ok {
			t.Fatalf("model %s missing", name)
		}
		e, _, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, e.Key)
	}
	if keys[0] == keys[1] {
		t.Fatal("different models share a content address")
	}
	if c.Len() != 2 {
		t.Fatalf("expected 2 entries, got %d", c.Len())
	}
}

func TestConcurrentCompilesOneEntry(t *testing.T) {
	c := newCache(t, "", 0)
	mdl := demoModel(t)
	e, _, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := "int a = 2; int b = 3; int y; y = a + b;"
	ref, err := e.Compile(context.Background(), src, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Compile(context.Background(), src, core.CompileOptions{})
			if err != nil {
				panic(err)
			}
			if fmt.Sprint(res.Words()) != fmt.Sprint(ref.Words()) {
				panic("concurrent compile produced different words")
			}
		}()
	}
	wg.Wait()
}

func TestRecoveryScanRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	mdl := demoModel(t)

	// Simulate a process killed mid-store: a torn temp file next to a
	// valid artifact.
	c1 := newCache(t, dir, 0)
	if _, _, err := c1.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, ".deadbeef.tmp123456")
	if err := os.WriteFile(orphan, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := newCache(t, dir, 0)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan survived the recovery scan: %v", err)
	}
	if got := metric(t, c2, "record_rcache_orphans_recovered_total"); got != 1 {
		t.Fatalf("orphans recovered = %d, want 1", got)
	}
	// The valid artifact next to it is untouched.
	if _, out, err := c2.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil || out != Disk {
		t.Fatalf("after recovery: %v %s, want disk hit", err, out)
	}
}

func TestStoreFailureLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	mdl := demoModel(t)

	faultpoint.Arm("rcache.disk.write", faultpoint.Action{Kind: faultpoint.KindError})
	defer faultpoint.Reset()

	rep := diag.NewReporter()
	c := openCache(t, Options{Dir: dir, Reporter: rep})
	if _, out, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil || out != Miss {
		t.Fatalf("get through store failure: %v %s", err, out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("failed store left %s behind", e.Name())
	}
	if rep.Warns() == 0 {
		t.Fatal("store failure produced no warning")
	}
	if c.Degraded() {
		t.Fatal("an injected one-off error must not disable the disk tier")
	}
	if got := metric(t, c, "record_rcache_disk_errors_total"); got != 1 {
		t.Fatalf("disk failures = %d, want 1", got)
	}
}

func TestDiskDegradationToMemoryOnly(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("read-only directories do not bind as root")
	}
	dir := t.TempDir()
	mdl := demoModel(t)

	rep := diag.NewReporter()
	c, err := New(Options{Dir: dir, Reporter: rep})
	if err != nil {
		t.Fatal(err)
	}
	// Make the store unwritable after New succeeded, as if the disk went
	// read-only under a running service.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)

	if _, out, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil || out != Miss {
		t.Fatalf("get on read-only disk: %v %s", err, out)
	}
	if !c.Degraded() {
		t.Fatal("read-only store did not degrade the disk tier")
	}
	warns := rep.Warns()
	if warns == 0 {
		t.Fatal("degradation produced no warning")
	}
	// Further traffic works memory-only and does not warn again.
	if _, out, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil || out != Mem {
		t.Fatalf("degraded get: %v %s, want memory hit", err, out)
	}
	if _, _, err := c.GetContext(context.Background(), mdl+" ", core.RetargetOptions{}); err != nil {
		t.Fatalf("degraded miss: %v", err)
	}
	if got := rep.Warns(); got != warns {
		t.Fatalf("degradation warned %d more times; want exactly one warning", got-warns)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close on degraded cache: %v", err)
	}
}

func TestCloseFlushesDir(t *testing.T) {
	dir := t.TempDir()
	c := newCache(t, dir, 0)
	if _, _, err := c.GetContext(context.Background(), demoModel(t), core.RetargetOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Close holds no handles: the cache keeps working.
	if _, out, err := c.GetContext(context.Background(), demoModel(t), core.RetargetOptions{}); err != nil || out != Mem {
		t.Fatalf("get after Close: %v %s", err, out)
	}
}

func TestDiskFailENOSPCDegrades(t *testing.T) {
	rep := diag.NewReporter()
	c := openCache(t, Options{Dir: t.TempDir(), Reporter: rep})
	full := &os.PathError{Op: "write", Path: "x", Err: syscall.ENOSPC}
	c.diskFail("k1", full)
	if !c.Degraded() {
		t.Fatal("ENOSPC did not degrade the disk tier")
	}
	warns := rep.Warns()
	c.diskFail("k2", full)
	if rep.Warns() != warns {
		t.Fatal("degradation warned more than once")
	}
	if got := metric(t, c, "record_rcache_disk_errors_total"); got != 2 {
		t.Fatalf("disk failures = %d, want 2", got)
	}
	if e, _ := c.loadDisk("k1"); e != nil {
		t.Fatal("degraded cache still reads disk")
	}
}

// TestCoalescedFollowerOutlivesCancelledLeader: a request that joins
// another request's retarget does not inherit that request's
// cancellation — when the leader's context ends, the follower takes the
// fill over under its own context.
func TestCoalescedFollowerOutlivesCancelledLeader(t *testing.T) {
	faultpoint.Arm("ise.extract", faultpoint.Action{Kind: faultpoint.KindDelay, Delay: 300 * time.Millisecond})
	defer faultpoint.Reset()
	c := newCache(t, "", 0)
	mdl := demoModel(t)

	lctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.GetContext(lctx, mdl, core.RetargetOptions{})
		leader <- err
	}()
	// The one-shot delay disarms as it fires: the leader is then inside
	// its slowed retarget.
	waitFor(t, "the leader's retarget", func() bool { return len(faultpoint.Armed()) == 0 })
	follower := make(chan error, 1)
	go func() {
		_, _, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{})
		follower <- err
	}()
	waitFor(t, "the follower to join", func() bool { return c.fills.Merged() == 1 })
	cancel()
	if err := <-leader; err == nil {
		t.Fatal("cancelled leader succeeded")
	}
	if err := <-follower; err != nil {
		t.Fatalf("follower inherited its leader's cancellation: %v", err)
	}
	if c.memGet(c.Key(mdl, core.RetargetOptions{})) == nil {
		t.Fatal("the follower's retarget did not land in memory")
	}
}

// TestSourcedRequestOutlivesKeyOnlyFill: a by-source request that joins a
// by-key lookup's fill does not inherit the lookup's "not found" — it has
// the source, so it retargets.
func TestSourcedRequestOutlivesKeyOnlyFill(t *testing.T) {
	c := newCache(t, "", 0)
	mdl := demoModel(t)
	ropts := core.RetargetOptions{}
	key := c.Key(mdl, ropts)
	// The fill a by-key lookup runs for a key no tier holds, held open
	// until release closes.
	started, release := make(chan struct{}), make(chan struct{})
	lookup := make(chan bool, 1)
	go func() {
		v, _, _ := c.fills.Do(context.Background(), key, func() (interface{}, error) {
			close(started)
			<-release
			return c.fill(context.Background(), key, "", ropts)
		})
		lookup <- v.(filled).entry != nil
	}()
	<-started
	type reply struct {
		e   *Entry
		out Outcome
		err error
	}
	get := make(chan reply, 1)
	go func() {
		e, out, err := c.GetContext(context.Background(), mdl, ropts)
		get <- reply{e, out, err}
	}()
	waitFor(t, "the request to join", func() bool { return c.fills.Merged() == 1 })
	close(release)
	if <-lookup {
		t.Fatal("lookup found a key no tier holds")
	}
	if r := <-get; r.err != nil || r.e == nil || r.out != Miss {
		t.Fatalf("sourced request: %s, %v; want a retarget", r.out, r.err)
	}
	if got := metric(t, c, coalesced); got != 0 {
		t.Fatalf("the retargeting request counted as coalesced %d times", got)
	}
}

func TestLoadDiskQuarantinesCorruptArtifact(t *testing.T) {
	key, data := seedArtifact(t)
	c := storeWith(t, key, data)
	corruptFile(t, c.path(key))

	// A read-path discovery of the corruption must quarantine, not delete.
	if e, _, err := c.LookupContext(context.Background(), key); e != nil || err != nil {
		t.Fatalf("corrupt artifact should be a miss, got entry %v, error %v", e, err)
	}
	if _, err := os.Stat(c.quarantinePath(key)); err != nil {
		t.Fatalf("loadDisk should quarantine, not remove: %v", err)
	}
	if cr, q := metric(t, c, "record_rcache_corrupt_total"), metric(t, c, "record_rcache_quarantined_files"); cr != 1 || q != 1 {
		t.Fatalf("corrupt %d, quarantined %d; want 1 each", cr, q)
	}
}

// TestWrongKeyArtifactQuarantined: a valid artifact stored under another
// content address is rejected by its self-identifying key, not served.
func TestWrongKeyArtifactQuarantined(t *testing.T) {
	key, data := seedArtifact(t)
	wrong := "deadbeef" + key[8:]
	c := storeWith(t, wrong, data)
	if e, _, err := c.LookupContext(context.Background(), wrong); e != nil || err != nil {
		t.Fatal("mismatched artifact was accepted")
	}
	if got := metric(t, c, "record_rcache_corrupt_total"); got != 1 {
		t.Fatalf("corrupt = %d, want 1", got)
	}
}

// TestRestoreFailureKeepsValidArtifact: quarantine is for bad bytes.  A
// retarget that fails on a verified artifact (here an injected panic
// while building the grammar) is the lookup's error, and the file stays
// in place, uncounted as corrupt, for the next lookup to restore.
func TestRestoreFailureKeepsValidArtifact(t *testing.T) {
	key, data := seedArtifact(t)
	c := storeWith(t, key, data)
	if err := faultpoint.ArmSpec("grammar.rule=panic"); err != nil {
		t.Fatal(err)
	}
	e, _, err := c.LookupContext(context.Background(), key)
	faultpoint.Reset()
	var pe *diag.PanicError
	if e != nil || !errors.As(err, &pe) {
		t.Fatalf("lookup through a panicking retarget: entry %v, error %v; want the recovered panic", e, err)
	}
	if _, err := os.Stat(c.path(key)); err != nil {
		t.Fatalf("valid artifact moved after a failed restore: %v", err)
	}
	if cr, q := metric(t, c, "record_rcache_corrupt_total"), metric(t, c, "record_rcache_quarantined_files"); cr != 0 || q != 0 {
		t.Fatalf("corrupt %d, quarantined %d; want 0 each", cr, q)
	}
	if e, out, err := c.LookupContext(context.Background(), key); e == nil || err != nil || out != Disk {
		t.Fatalf("lookup after the fault: %s, %v; want a disk hit", out, err)
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

// TestConcurrentLookupsDecodeDiskOnce: by-key lookups share one fill, so
// concurrent lookups for a key only the disk holds decode and retarget it
// once; the rest are counted as coalesced.
func TestConcurrentLookupsDecodeDiskOnce(t *testing.T) {
	key, data := seedArtifact(t)
	c := storeWith(t, key, data)
	// Hold the leader inside its restore: grammar.rule fires while Target
	// retargets, until every other lookup has joined.
	faultpoint.Arm("grammar.rule", faultpoint.Action{Kind: faultpoint.KindDelay, Delay: 500 * time.Millisecond})
	defer faultpoint.Reset()

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e, _, err := c.LookupContext(context.Background(), key); e == nil || err != nil {
				t.Errorf("lookup missed a key the disk holds: %v", err)
			}
		}()
	}
	waitFor(t, "the lookups to coalesce", func() bool { return c.fills.Merged() == n-1 })
	wg.Wait()

	if h, co := metric(t, c, diskHits), metric(t, c, coalesced); h != 1 || co != n-1 {
		t.Fatalf("%d disk hits and %d coalesced, want 1 and %d", h, co, n-1)
	}
}
