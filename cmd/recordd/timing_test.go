package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultpoint"
	"repro/internal/qos"
)

// timingMetric is one parsed Server-Timing entry.
type timingMetric struct {
	desc string
	ms   float64
}

// parseServerTiming parses a Server-Timing header into its metrics by
// name, failing the test on a malformed or repeated entry.
func parseServerTiming(t *testing.T, h string) map[string]timingMetric {
	t.Helper()
	if h == "" {
		t.Fatal("no Server-Timing header")
	}
	out := map[string]timingMetric{}
	for _, entry := range strings.Split(h, ", ") {
		params := strings.Split(entry, ";")
		name := params[0]
		var m timingMetric
		seenDur := false
		for _, p := range params[1:] {
			k, v, ok := strings.Cut(p, "=")
			switch {
			case !ok:
				t.Fatalf("metric %q: bad parameter %q in %q", name, p, h)
			case k == "desc":
				m.desc = v
			case k == "dur":
				d, err := strconv.ParseFloat(v, 64)
				if err != nil || d < 0 {
					t.Fatalf("metric %q: bad dur %q in %q", name, v, h)
				}
				m.ms, seenDur = d, true
			}
		}
		if !seenDur {
			t.Fatalf("metric %q has no dur in %q", name, h)
		}
		if _, dup := out[name]; dup {
			t.Fatalf("metric %q repeated in %q", name, h)
		}
		out[name] = m
	}
	if _, ok := out["total"]; !ok {
		t.Fatalf("no total in %q", h)
	}
	return out
}

// requireMetrics fails unless every name is present, and cache (when
// wanted) carries the given tier.
func requireMetrics(t *testing.T, got map[string]timingMetric, tier string, names ...string) {
	t.Helper()
	for _, n := range names {
		if _, ok := got[n]; !ok {
			t.Errorf("Server-Timing lacks %q: %v", n, got)
		}
	}
	if tier != "" && got["cache"].desc != tier {
		t.Errorf("cache desc %q, want %q", got["cache"].desc, tier)
	}
}

// TestServerTimingColdRetarget: a cold retarget names every retarget
// phase, a cache miss and the total, and its named phases account for
// the total to within 10%.
func TestServerTimingColdRetarget(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{cacheDir: t.TempDir()})
	code, hdr, raw, err := rawPost(ts.URL+"/v1/retarget", map[string]string{"model_name": "tms320c25"})
	if err != nil || code != http.StatusOK {
		t.Fatalf("retarget: %d %s %v", code, raw, err)
	}
	got := parseServerTiming(t, hdr.Get("Server-Timing"))
	requireMetrics(t, got, "miss", "decode", "qos", "cache",
		"frontend", "ise", "extend", "grammar", "burs", "freeze", "render", "total")
	sum := 0.0
	for name, m := range got {
		if name != "total" {
			sum += m.ms
		}
	}
	total := got["total"].ms
	// Each duration is rounded to the microsecond.
	if slack := 0.001 * float64(len(got)); sum > total+slack {
		t.Errorf("named phases sum to %.3f ms, above the total %.3f ms", sum, total)
	}
	if total-sum >= 0.1*total {
		t.Errorf("%.3f of %.3f ms unnamed (≥10%%): %s", total-sum, total, hdr.Get("Server-Timing"))
	}
}

// TestServerTimingByKeyCompile: a compile by key against a warm model
// names its queue wait, the memory tier, every compile stage and the
// render, and no retarget phase.
func TestServerTimingByKeyCompile(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	var rt retargetResponse
	if code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, &rt); code != http.StatusOK {
		t.Fatalf("retarget: %d %s", code, raw)
	}
	code, hdr, raw, err := rawPost(ts.URL+"/v1/compile",
		map[string]string{"key": rt.Key, "source": "int a = 2; int b = 3; int y; y = a * b;"})
	if err != nil || code != http.StatusOK {
		t.Fatalf("compile: %d %s %v", code, raw, err)
	}
	got := parseServerTiming(t, hdr.Get("Server-Timing"))
	requireMetrics(t, got, "mem", "decode", "qos", "cache",
		"bind", "select", "peephole", "compact", "encode", "render", "total")
	if _, ok := got["frontend"]; ok {
		t.Errorf("a memory hit ran a retarget: %v", got)
	}
}

// TestServerTimingOnRefusalAndFollower: a 404 and a coalesced duplicate
// still carry the total; the duplicate's wait is its coalesced cache
// answer.
func TestServerTimingOnRefusalAndFollower(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 1})
	code, hdr, _, err := rawPost(ts.URL+"/v1/compile",
		map[string]string{"key": strings.Repeat("0", 64), "source": "int y; y = 1;"})
	if err != nil || code != http.StatusNotFound {
		t.Fatalf("unknown key: %d %v", code, err)
	}
	requireMetrics(t, parseServerTiming(t, hdr.Get("Server-Timing")), "miss", "decode", "cache")

	if code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil); code != http.StatusOK {
		t.Fatalf("warm retarget: %d %s", code, raw)
	}
	hold, err := s.sched.Acquire(context.Background(), qos.Interactive)
	if err != nil {
		t.Fatal(err)
	}
	const dup = 3
	headers := make(chan string, dup)
	for i := 0; i < dup; i++ {
		go func() {
			_, hdr, _, _ := rawPost(ts.URL+"/v1/compile", map[string]string{
				"model_name": "demo", "source": "int a = 2; int y; y = a + 1;"})
			headers <- hdr.Get("Server-Timing")
		}()
	}
	waitCond(t, "duplicates to coalesce onto the leader", func() bool {
		return queueDepth(s) == 1 && s.coal.Merged() == dup-1
	})
	hold()
	followers := 0
	for i := 0; i < dup; i++ {
		got := parseServerTiming(t, <-headers)
		if got["cache"].desc == "coalesced" {
			followers++
			if _, ok := got["bind"]; ok {
				t.Errorf("a follower reports the leader's compile: %v", got)
			}
		} else {
			requireMetrics(t, got, "mem", "qos", "bind", "render")
		}
	}
	if followers != dup-1 {
		t.Errorf("%d responses timed as coalesced, want %d", followers, dup-1)
	}
}

// runClocked runs one POST through the request pipeline under a fresh
// request clock and returns the status and the clock.
func runClocked(t *testing.T, s *server, path string, rt route, body interface{}) (int, *clock) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	r = r.WithContext(withClock(r.Context(), s.reg))
	return s.run(r, rt).status, clockFrom(r.Context())
}

// TestRequestTracerFitsBound: the largest bundled model's cold retarget
// and a multi-program batch record every span within requestSpans.
func TestRequestTracerFitsBound(t *testing.T) {
	s, err := newServer(serverConfig{workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	code, c := runClocked(t, s, "/v1/retarget", retargetRoute, map[string]string{"model_name": "ref"})
	if code != http.StatusOK {
		t.Fatalf("ref retarget: %d", code)
	}
	if n := c.scope.Tracer().Dropped(); n != 0 {
		t.Errorf("cold ref retarget dropped %d spans past %d", n, requestSpans)
	}
	var progs []map[string]string
	for i := 0; i < 16; i++ {
		progs = append(progs, map[string]string{"source": fmt.Sprintf("int a = %d; int y; y = a + 1;", i)})
	}
	code, c = runClocked(t, s, "/v1/compile-batch", batchRoute,
		map[string]interface{}{"model_name": "ref", "programs": progs})
	if code != http.StatusOK {
		t.Fatalf("batch: %d", code)
	}
	if n := c.scope.Tracer().Dropped(); n != 0 {
		t.Errorf("16-program batch dropped %d spans past %d", n, requestSpans)
	}
	if got := strings.Count(c.serverTiming(), "bind;"); got != 1 {
		t.Errorf("batch header lists bind %d times, want once (summed)", got)
	}
}

// TestEncodeFaultCountedAsItsOwnError: the response-encode faultpoint
// swaps a response for a 500 before its headers and counters, so the
// 500 is what errors_total counts and it carries no Retry-After left
// over from the response it replaced.
func TestEncodeFaultCountedAsItsOwnError(t *testing.T) {
	defer faultpoint.Reset()
	s, ts := newTestServer(t, serverConfig{})
	if err := faultpoint.ArmSpec("recordd.response.encode=error*1"); err != nil {
		t.Fatal(err)
	}
	code, hdr, raw, err := rawPost(ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"})
	if err != nil || code != http.StatusInternalServerError {
		t.Fatalf("faulted retarget: %d %s %v", code, raw, err)
	}
	if hdr.Get("Retry-After") != "" {
		t.Errorf("a faulted 200 carries Retry-After %q", hdr.Get("Retry-After"))
	}
	if body := scrapeMetrics(t, ts.URL); !strings.Contains(body, `record_recordd_errors_total{status="500"} 1`) {
		t.Errorf("the swapped 500 is not counted:\n%s", body)
	}

	// A draining refusal (503, Retry-After) swapped for a 500 keeps
	// neither its status count nor its retry hint.
	s.beginDrain()
	if err := faultpoint.ArmSpec("recordd.response.encode=error*1"); err != nil {
		t.Fatal(err)
	}
	code, hdr, raw, err = rawPost(ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"})
	if err != nil || code != http.StatusInternalServerError {
		t.Fatalf("faulted refusal: %d %s %v", code, raw, err)
	}
	if hdr.Get("Retry-After") != "" {
		t.Errorf("a 500 kept the refusal's Retry-After %q", hdr.Get("Retry-After"))
	}
	body := scrapeMetrics(t, ts.URL)
	if !strings.Contains(body, `record_recordd_errors_total{status="500"} 2`) ||
		strings.Contains(body, `record_recordd_errors_total{status="503"}`) {
		t.Errorf("errors_total does not count exactly the two 500s:\n%s", body)
	}
}
