package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/qos"
)

// postPriority is rawPost with an X-Record-Priority header (empty =
// no header, the server's per-route default applies).
func postPriority(url, priority string, body interface{}) (int, http.Header, string, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, "", err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if priority != "" {
		req.Header.Set("X-Record-Priority", priority)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.String(), nil
}

// waitCond polls cond until it holds or the test deadline budget runs out.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQoSMixedPriorityStorm is the priority-class acceptance test: with
// the pool saturated by a batch flood, interactive traffic must displace
// queued batch work and complete, and every shed must land on the batch
// class — zero interactive requests refused.
func TestQoSMixedPriorityStorm(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 1, maxQueue: 4, cacheDir: t.TempDir()})

	// Warm the cache so no queued request needs a retarget.
	if code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil); code != http.StatusOK {
		t.Fatalf("warm retarget: %d %s", code, raw)
	}

	// Occupy the only worker slot for the whole storm.
	hold, err := s.sched.Acquire(context.Background(), qos.Interactive)
	if err != nil {
		t.Fatal(err)
	}

	// Batch flood: 12 distinct programs (distinct so none coalesce).
	// With the slot held, 4 queue and the remaining 8 shed immediately.
	const flood, queueCap = 12, 4
	batchCodes := make(chan int, flood)
	for i := 0; i < flood; i++ {
		go func(i int) {
			code, _, _, err := postPriority(ts.URL+"/v1/compile", "batch", map[string]interface{}{
				"model_name": "demo",
				"source":     fmt.Sprintf("int a = %d; int y; y = a + 1;", i+2),
			})
			if err != nil {
				code = -1
			}
			batchCodes <- code
		}(i)
	}
	waitCond(t, "batch flood to fill the queue", func() bool {
		return s.sched.Depth(qos.Batch) == queueCap && s.sched.Shed(qos.Batch) == flood-queueCap
	})

	// Interactive trickle: each arrival finds the queue full, evicts the
	// newest queued batch waiter and takes its place.
	const trickle = 4
	iCodes := make(chan int, trickle)
	for i := 0; i < trickle; i++ {
		go func(i int) {
			code, _, _, err := postPriority(ts.URL+"/v1/compile", "interactive", map[string]interface{}{
				"model_name": "demo",
				"source":     fmt.Sprintf("int b = %d; int y; y = b + 2;", i+2),
			})
			if err != nil {
				code = -1
			}
			iCodes <- code
		}(i)
		waitCond(t, "interactive request to displace a batch waiter", func() bool {
			return s.sched.Depth(qos.Interactive) == i+1
		})
	}
	if d := s.sched.Depth(qos.Batch); d != 0 {
		t.Fatalf("batch depth %d after interactive displacement, want 0", d)
	}

	// Free the slot: the queued interactive work drains and completes.
	hold()
	for i := 0; i < trickle; i++ {
		if code := <-iCodes; code != http.StatusOK {
			t.Fatalf("interactive request finished %d, want 200", code)
		}
	}
	for i := 0; i < flood; i++ {
		if code := <-batchCodes; code != http.StatusTooManyRequests {
			t.Fatalf("batch request finished %d, want 429", code)
		}
	}

	// Every shed was a batch shed.
	if got := s.sched.Shed(qos.Interactive); got != 0 {
		t.Fatalf("interactive sheds = %d, want 0", got)
	}
	if got := s.sched.Shed(qos.Batch); got != flood {
		t.Fatalf("batch sheds = %d, want %d", got, flood)
	}
	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`record_recordd_shed_total{class="batch"} 12`,
		`record_recordd_shed_total{class="interactive"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestQoSCompileCoalescing asserts the thundering-herd contract: N
// identical compiles queued at once cost exactly one underlying
// execution, and every caller receives byte-identical bytes.
func TestQoSCompileCoalescing(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 1, cacheDir: t.TempDir()})
	if code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil); code != http.StatusOK {
		t.Fatalf("warm retarget: %d %s", code, raw)
	}
	hold, err := s.sched.Acquire(context.Background(), qos.Interactive)
	if err != nil {
		t.Fatal(err)
	}

	const dup = 6
	prog := "int a = 2; int b = 3; int y; y = a * b;"
	type reply struct {
		code int
		body string
	}
	replies := make(chan reply, dup)
	for i := 0; i < dup; i++ {
		go func() {
			code, _, raw, err := postPriority(ts.URL+"/v1/compile", "", map[string]interface{}{
				"model_name": "demo", "source": prog,
			})
			if err != nil {
				code = -1
			}
			replies <- reply{code, raw}
		}()
	}
	// One leader queues for the held slot; the duplicates join its flight
	// without ever entering the scheduler.
	waitCond(t, "duplicates to coalesce onto the leader", func() bool {
		return s.sched.Queued() == 1 && s.coal.Merged() == dup-1
	})
	base := s.sched.Dispatched(qos.Interactive)

	hold()
	var first string
	for i := 0; i < dup; i++ {
		r := <-replies
		if r.code != http.StatusOK {
			t.Fatalf("coalesced compile finished %d: %s", r.code, r.body)
		}
		if first == "" {
			first = r.body
		} else if r.body != first {
			t.Fatalf("coalesced responses differ:\n%q\nvs\n%q", r.body, first)
		}
	}

	// Exactly one slot grant ran the compile; the rest were merged.
	if got := s.sched.Dispatched(qos.Interactive) - base; got != 1 {
		t.Fatalf("underlying executions = %d, want 1", got)
	}
	if got := s.coal.Merged(); got != dup-1 {
		t.Fatalf("merged = %d, want %d", got, dup-1)
	}
	if body := scrapeMetrics(t, ts.URL); !strings.Contains(body,
		fmt.Sprintf("record_recordd_qos_coalesced_total %d", dup-1)) {
		t.Errorf("coalescing counter missing from metrics:\n%s", body)
	}
}

// TestQoSCoalescedFollowerOutlivesLeader: a duplicate compile that
// coalesced onto a queued leader does not inherit the leader's client
// hanging up.  The live duplicate takes the execution over and gets its
// 200 once a slot frees up.
func TestQoSCoalescedFollowerOutlivesLeader(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 1})
	if code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil); code != http.StatusOK {
		t.Fatalf("warm retarget: %d %s", code, raw)
	}
	hold, err := s.sched.Acquire(context.Background(), qos.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	body := map[string]interface{}{"model_name": "demo", "source": "int a = 4; int y; y = a * a;"}

	// The leader queues for the held slot under a client that will hang up.
	lctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	b, _ := json.Marshal(body)
	req, err := http.NewRequestWithContext(lctx, http.MethodPost, ts.URL+"/v1/compile", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitCond(t, "the leader to queue", func() bool { return s.sched.Queued() == 1 })

	// An identical request with a live client coalesces onto it.
	type reply struct {
		code int
		body string
	}
	follower := make(chan reply, 1)
	go func() {
		code, _, raw, err := rawPost(ts.URL+"/v1/compile", body)
		if err != nil {
			code = -1
		}
		follower <- reply{code, raw}
	}()
	waitCond(t, "the duplicate to coalesce", func() bool { return s.coal.Merged() == 1 })

	hangUp()
	waitCond(t, "the leader's abort", func() bool { return s.cAborts.Value() == 1 })
	hold()
	select {
	case r := <-follower:
		if r.code != http.StatusOK {
			t.Fatalf("live follower got %d %s, want 200", r.code, r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("live follower never answered")
	}
}

// TestQoSPriorityHeaderGarbage: whatever a client puts in
// X-Record-Priority, the request is served — garbage degrades to the
// route default, it can never become an error.
func TestQoSPriorityHeaderGarbage(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{cacheDir: t.TempDir()})
	if code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil); code != http.StatusOK {
		t.Fatalf("warm retarget: %d %s", code, raw)
	}
	for _, hdr := range []string{
		"", "interactive", "batch", "BATCH", " Interactive ", "urgent",
		"batch;q=1", "0", strings.Repeat("x", 4096), "ínterâctive",
	} {
		code, _, raw, err := postPriority(ts.URL+"/v1/compile", hdr, map[string]interface{}{
			"model_name": "demo", "source": "int a = 2; int y; y = a;",
		})
		if err != nil {
			t.Fatalf("header %q: %v", hdr, err)
		}
		if code != http.StatusOK {
			t.Errorf("header %q: status %d, want 200 (%s)", hdr, code, raw)
		}
	}

	// A well-formed "batch" header actually routes to the batch class.
	before := s.sched.Dispatched(qos.Batch)
	if code, _, raw, err := postPriority(ts.URL+"/v1/compile", "batch", map[string]interface{}{
		"model_name": "demo", "source": "int a = 3; int y; y = a;",
	}); err != nil || code != http.StatusOK {
		t.Fatalf("batch-class compile: %d %s %v", code, raw, err)
	}
	if got := s.sched.Dispatched(qos.Batch) - before; got != 1 {
		t.Fatalf("batch dispatches = %d, want 1", got)
	}
}

// TestQoSPrewarmServesFromMemory is the pre-warm acceptance test: a hot
// model pre-warmed from the disk store serves its first external request
// from the memory tier, with the pre-warm work attributed to its own
// counters so the serving hit-rate is not inflated.
func TestQoSPrewarmServesFromMemory(t *testing.T) {
	dir := t.TempDir()

	// Seed the shared disk store with one retargeted model.
	_, seed := newTestServer(t, serverConfig{cacheDir: dir})
	var rt retargetResponse
	if code, raw := post(t, seed.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, &rt); code != http.StatusOK {
		t.Fatalf("seed retarget: %d %s", code, raw)
	}

	// Fresh instance: cold memory, warm disk, pre-warm enabled.
	s, ts := newTestServer(t, serverConfig{cacheDir: dir, prewarmEvery: time.Hour})
	if s.cache.InMemory(rt.Key) {
		t.Fatal("fresh instance claims the artifact in memory")
	}
	s.pop.Touch(rt.Key, "")
	if n := s.prewarmer.Sweep(context.Background()); n != 1 {
		t.Fatalf("sweep warmed %d models, want 1", n)
	}
	if !s.cache.InMemory(rt.Key) {
		t.Fatal("sweep did not land the artifact in memory")
	}

	// The first external request is a memory hit.
	var cp compileResponse
	code, raw := post(t, ts.URL+"/v1/compile", map[string]interface{}{
		"key": rt.Key, "source": "int a = 2; int y; y = a + 1;",
	}, &cp)
	if code != http.StatusOK {
		t.Fatalf("post-prewarm compile: %d %s", code, raw)
	}
	if cp.Cache != "hit" {
		t.Fatalf("post-prewarm compile served from %q, want hit (memory)", cp.Cache)
	}

	// Attribution: the pre-warm shows up only in its own counters.
	for series, want := range map[string]int{
		`record_rcache_prewarm_total{outcome="hit-disk"}`: 1,
		`record_rcache_hits_total{tier="mem"}`:            1,
		`record_rcache_hits_total{tier="disk"}`:           0,
		"record_rcache_misses_total":                      0,
		"record_rcache_retargets_total":                   0,
	} {
		if got := metricValue(t, ts.URL, series); got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
}

// TestQoSPrewarmFaultpoint: an armed recordd.prewarm.retarget fault
// makes the sweep count an error and warm nothing; once cleared, the
// next sweep succeeds — pre-warm failures never escalate.
func TestQoSPrewarmFaultpoint(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	_, seed := newTestServer(t, serverConfig{cacheDir: dir})
	var rt retargetResponse
	if code, raw := post(t, seed.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, &rt); code != http.StatusOK {
		t.Fatalf("seed retarget: %d %s", code, raw)
	}

	s, _ := newTestServer(t, serverConfig{cacheDir: dir, prewarmEvery: time.Hour})
	s.pop.Touch(rt.Key, "")
	faultpoint.Arm("recordd.prewarm.retarget", faultpoint.Action{Kind: faultpoint.KindError})
	if n := s.prewarmer.Sweep(context.Background()); n != 0 {
		t.Fatalf("faulted sweep warmed %d models, want 0", n)
	}
	if s.cache.InMemory(rt.Key) {
		t.Fatal("faulted sweep warmed the artifact anyway")
	}
	if _, _, _, errs := s.prewarmer.Stats(); errs != 1 {
		t.Fatalf("sweep errors = %d, want 1", errs)
	}
	// The fault fired once and disarmed; the next sweep recovers.
	if n := s.prewarmer.Sweep(context.Background()); n != 1 {
		t.Fatalf("post-fault sweep warmed %d models, want 1", n)
	}
	if !s.cache.InMemory(rt.Key) {
		t.Fatal("post-fault sweep did not warm the artifact")
	}
}

// scrapeMetrics fetches /metrics as text.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
