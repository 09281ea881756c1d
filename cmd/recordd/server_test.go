package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/faultpoint"
	"repro/internal/models"
)

func newTestServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body interface{}, out interface{}) (int, string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("bad response JSON %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode, buf.String()
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

func TestRetargetThenCompileByKey(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{cacheDir: t.TempDir()})

	var rt retargetResponse
	code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, &rt)
	if code != http.StatusOK {
		t.Fatalf("retarget: %d %s", code, raw)
	}
	if rt.Key == "" || rt.Templates == 0 || rt.Rules == 0 {
		t.Fatalf("thin retarget response: %+v", rt)
	}
	if rt.Cache != "miss" {
		t.Fatalf("first retarget outcome %q, want miss", rt.Cache)
	}

	var cp compileResponse
	code, raw = post(t, ts.URL+"/v1/compile", map[string]interface{}{
		"key":    rt.Key,
		"source": "int a = 2; int b = 3; int y; y = a + b;",
	}, &cp)
	if code != http.StatusOK {
		t.Fatalf("compile by key: %d %s", code, raw)
	}
	if cp.Key != rt.Key || cp.CodeLen == 0 || len(cp.Words) != cp.CodeLen || cp.Listing == "" {
		t.Fatalf("thin compile response: %+v", cp)
	}

	// Second retarget of the same model is a cache hit.
	code, raw = post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, &rt)
	if code != http.StatusOK || !strings.Contains(rt.Cache, "hit") {
		t.Fatalf("second retarget: %d %s outcome %q", code, raw, rt.Cache)
	}
}

// TestControlFlowRemoteParity: a program with a while loop compiles by
// model name on recordd to the words a local Compiler produces.  A target
// without jump templates, and a jump the target field cannot reach,
// answer 422 with a message naming the cause.
func TestControlFlowRemoteParity(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	const src = "int s; int i; void main() { s = 0; i = 1; while (i <= 10) { s = s + i; i = i + 1; } }"
	tg, err := core.RetargetContext(context.Background(), models.BrancherMDL, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.NewCompiler(tg, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := comp.CompileSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	var cp compileResponse
	code, raw := post(t, ts.URL+"/v1/compile", map[string]string{"model_name": "brancher", "source": src}, &cp)
	if code != http.StatusOK {
		t.Fatalf("brancher compile: %d %s", code, raw)
	}
	if !reflect.DeepEqual(cp.Words, local.Words()) || cp.Listing != tg.Listing(local) {
		t.Errorf("remote words %x differ from local %x", cp.Words, local.Words())
	}
	code, raw = post(t, ts.URL+"/v1/compile", map[string]string{"model_name": "tms320c25", "source": src}, nil)
	if code != http.StatusUnprocessableEntity || !strings.Contains(raw, "jump template") {
		t.Errorf("tms320c25 compile: %d %s, want 422 naming the missing jump template", code, raw)
	}
	// A loop placed past word 255 is out of reach of the 8-bit jump field.
	var long strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&long, "int y%d; ", i)
	}
	long.WriteString("int n = 2; void main() { ")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&long, "y%d = y%d + 1; ", i, i)
	}
	long.WriteString("while (n != 0) { n = n - 1; } }")
	code, raw = post(t, ts.URL+"/v1/compile", map[string]string{"model_name": "brancher", "source": long.String()}, nil)
	if code != http.StatusUnprocessableEntity || !strings.Contains(raw, "8-bit") {
		t.Errorf("out-of-field jump: %d %s, want 422 naming the field width", code, raw)
	}
}

func TestCompileUnknownKey404(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	code, _ := post(t, ts.URL+"/v1/compile", map[string]string{
		"key": "deadbeef", "source": "int y; y = 1;",
	}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown key: %d, want 404", code)
	}
}

// TestCompileByKeyRestoreFault: a by-key compile whose disk artifact is
// valid but whose retarget fails answers with that failure's class (a
// recovered panic is 500), not 404, and the artifact still serves the
// next request.
func TestCompileByKeyRestoreFault(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, serverConfig{cacheDir: dir})
	var rt retargetResponse
	if code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, &rt); code != http.StatusOK {
		t.Fatalf("retarget: %d %s", code, raw)
	}
	_, ts = newTestServer(t, serverConfig{cacheDir: dir}) // the key is only on disk
	req := map[string]string{"key": rt.Key, "source": "int y; y = 1;"}
	if err := faultpoint.ArmSpec("grammar.rule=panic"); err != nil {
		t.Fatal(err)
	}
	code, raw := post(t, ts.URL+"/v1/compile", req, nil)
	faultpoint.Reset()
	if code != http.StatusInternalServerError {
		t.Fatalf("by-key compile through a panicking restore: %d %s, want 500", code, raw)
	}
	var cp compileResponse
	if code, raw := post(t, ts.URL+"/v1/compile", req, &cp); code != http.StatusOK || cp.Cache != "hit-disk" {
		t.Fatalf("by-key compile after the fault: %d %s, want a disk hit", code, raw)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	cases := []struct {
		path string
		body interface{}
		want int
	}{
		{"/v1/retarget", map[string]string{}, http.StatusBadRequest},
		{"/v1/retarget", map[string]string{"model_name": "nope"}, http.StatusBadRequest},
		{"/v1/retarget", map[string]string{"model": "bogus model text"}, http.StatusUnprocessableEntity},
		{"/v1/compile", map[string]string{"model_name": "demo"}, http.StatusBadRequest}, // no source
		{"/v1/compile", map[string]string{"key": "k", "model_name": "demo", "source": "int y;"}, http.StatusBadRequest},
		{"/v1/compile", map[string]string{"model_name": "demo", "source": "int a = 1; int y; y = a + ;"}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if code, raw := post(t, ts.URL+c.path, c.body, nil); code != c.want {
			t.Errorf("%s %v: %d (want %d): %s", c.path, c.body, code, c.want, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/retarget")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET retarget: %d", resp.StatusCode)
	}
}

// TestConcurrentCompileSingleflight is the acceptance-criterion test: many
// concurrent /v1/compile requests for the same (uncached) model must
// trigger exactly one underlying retarget and all return identical code.
func TestConcurrentCompileSingleflight(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 16})
	k, ok := dspstone.Get("real_update")
	if !ok {
		t.Fatal("kernel real_update missing")
	}

	const n = 8
	responses := make([]compileResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]string{
				"model_name": "tms320c25",
				"source":     k.Source,
			})
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&responses[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(responses[i].Words, responses[0].Words) {
			t.Fatalf("request %d emitted different code:\n%v\n%v", i, responses[i].Words, responses[0].Words)
		}
		if responses[i].Key != responses[0].Key {
			t.Fatalf("request %d got key %s, want %s", i, responses[i].Key, responses[0].Key)
		}
	}
	if responses[0].CodeLen == 0 {
		t.Fatal("empty code")
	}
	if got := metricValue(t, ts.URL, "record_rcache_retargets_total"); got != 1 {
		t.Fatalf("%d concurrent compiles ran %d retargets, want exactly 1 (singleflight)", n, got)
	}
}

func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	if code, _ := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil); code != http.StatusOK {
		t.Fatalf("retarget: %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"record_rcache_retargets_total 1",
		"record_rcache_misses_total 1",
		"record_recordd_inflight_compiles 0",
		`record_recordd_phase_seconds_count{phase="retarget"} 1`,
		// The pipeline's own instruments surface through the same scrape.
		"record_core_retargets_total 1",
		"record_ise_templates_extracted_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestWorkerPoolBounds(t *testing.T) {
	// With one worker, many parallel compiles still succeed (they queue).
	_, ts := newTestServer(t, serverConfig{workers: 1})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]string{
				"model_name": "demo",
				"source":     "int a = 2; int y; y = a + 1;",
			})
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestMetricsParallelGauges: concurrent compiles against one uncached
// model land one retarget and one compile each in the phase histogram,
// the freeze phase only in the pipeline's own histogram, and the
// per-target in-flight gauge lives exactly as long as a compile.
func TestMetricsParallelGauges(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	const n = 4
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			code, _, _, err := rawPost(ts.URL+"/v1/compile", map[string]string{
				"model_name": "demo", "source": fmt.Sprintf("int a = %d; int y; y = a + a;", i),
			})
			if err != nil {
				code = -1
			}
			codes <- code
		}(i)
	}
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("compile: %d", code)
		}
	}

	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		fmt.Sprintf(`record_recordd_phase_seconds_count{phase="retarget"} %d`, n),
		fmt.Sprintf(`record_recordd_phase_seconds_count{phase="compile"} %d`, n),
		fmt.Sprintf(`record_recordd_phase_seconds_count{phase="encode"} %d`, n),
		`record_core_phase_seconds_count{phase="freeze"} 1`, // one retarget ran, so one freeze was measured
		"record_rcache_misses_total 1",
		"record_recordd_worker_pool_size",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, `record_recordd_phase_seconds_count{phase="freeze"}`) {
		t.Errorf("recordd's phase histogram copies the freeze phase:\n%s", text)
	}

	// The per-target gauge appears exactly while a compile is in flight.
	release := s.trackCompile("somekey")
	if text := scrapeMetrics(t, ts.URL); !strings.Contains(text, `record_recordd_target_inflight_compiles{key="somekey"} 1`) {
		t.Errorf("per-target inflight gauge missing:\n%s", text)
	}
	release()
	if text := scrapeMetrics(t, ts.URL); strings.Contains(text, "somekey") {
		t.Errorf("per-target gauge leaked after compile finished:\n%s", text)
	}
}

// TestPoolSaturationSheds is the admission-control acceptance test: with
// the worker pool held and the waiter queue full, the next request must be
// rejected promptly with 429 + Retry-After rather than queuing without
// bound, and queued work must still complete once capacity frees up.
func TestPoolSaturationSheds(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 1, maxQueue: 1})

	// Warm the cache so the queued compile needs no retarget.
	if code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil); code != http.StatusOK {
		t.Fatalf("warm retarget: %d %s", code, raw)
	}

	// Occupy the only worker slot.
	hold, err := s.pool.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One request is allowed to queue for the slot...
	queued := make(chan int, 1)
	go func() {
		code, _, _, _ := rawPost(ts.URL+"/v1/compile",
			map[string]string{"model_name": "demo", "source": "int a = 2; int y; y = a + 1;"})
		queued <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.gQueue.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// ...and the one after that is shed, fast and with a retry hint.
	start := time.Now()
	code, hdr, raw, err := rawPost(ts.URL+"/v1/compile",
		map[string]string{"model_name": "demo", "source": "int a = 3; int y; y = a + 2;"})
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated pool: %d %s, want 429", code, raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shed took %v, want a fast rejection", d)
	}
	if got := s.cShed.Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// Freeing the slot lets the queued request finish normally.
	hold()
	select {
	case code := <-queued:
		if code != http.StatusOK {
			t.Fatalf("queued request finished %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never completed")
	}
}

// TestClientDisconnectIsSilentAbort asserts the 499-style contract: a
// client that goes away mid-request produces no error response and is
// counted as an abort, not a server error.
func TestClientDisconnectIsSilentAbort(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 1})
	// Hold the only slot so the request queues and cancellation lands first.
	hold, err := s.pool.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(map[string]string{"model_name": "demo", "source": "int y; y = 1;"})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request unexpectedly succeeded")
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.cAborts.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("client abort not counted (aborts=%d)", s.cAborts.Value())
		}
		time.Sleep(time.Millisecond)
	}
	// The disconnect is not misfiled as a server error.
	if got := s.cErrors.With("500").Value(); got != 0 {
		t.Fatalf("client disconnect counted as %d server errors", got)
	}
}
