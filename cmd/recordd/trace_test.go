package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

// getJSON fetches url and decodes the body into out, failing the test on
// transport or decode errors.  It returns the response for header checks.
func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
	}
	return resp
}

// TestTracedRequestJoinsCallerTrace sends a retarget carrying a caller
// trace context and asserts the request span lands in the node's ring
// under the caller's trace ID, with the echo header agreeing.
func TestTracedRequestJoinsCallerTrace(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{cacheDir: t.TempDir(), nodeID: "n-test"})

	callerTrace := "0123456789abcdef0123456789abcdef"
	header := fmt.Sprintf("00-%s-%s-01", callerTrace, "00000000000000ab")
	body := strings.NewReader(`{"model_name":"demo"}`)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/retarget", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retarget: %d", resp.StatusCode)
	}

	// The echo header carries the caller's trace ID with the server's own
	// request span ID.
	echo, ok := obs.ParseTraceHeader(resp.Header.Get(obs.TraceHeader))
	if !ok {
		t.Fatalf("unparseable echo header %q", resp.Header.Get(obs.TraceHeader))
	}
	if echo.Trace.String() != callerTrace {
		t.Fatalf("echo trace %s, want %s", echo.Trace, callerTrace)
	}

	var dump obs.SpanDump
	getJSON(t, ts.URL+"/v1/debug/spans", &dump)
	if dump.Node != "n-test" {
		t.Fatalf("dump node %q, want n-test", dump.Node)
	}
	var reqSpan *obs.SpanRecord
	inTrace := 0
	for i, rec := range dump.Spans {
		if rec.Trace != callerTrace {
			continue
		}
		inTrace++
		if rec.Name == "recordd.retarget" {
			reqSpan = &dump.Spans[i]
		}
	}
	if reqSpan == nil {
		t.Fatalf("no recordd.retarget span under the caller trace; dump: %+v", dump.Spans)
	}
	// Remote parenting: the request span's parent is the caller's span ID,
	// a span this ring has never seen.
	if reqSpan.Parent != "00000000000000ab" {
		t.Fatalf("request span parent %q, want the caller span", reqSpan.Parent)
	}
	if reqSpan.Attrs["node"] != "n-test" || reqSpan.Attrs["status"] != float64(http.StatusOK) {
		t.Fatalf("request span attrs %v", reqSpan.Attrs)
	}
	// The layers below — QoS wait, cache lookup — joined the same trace
	// rather than opening fresh ones.
	if inTrace < 2 {
		t.Fatalf("only %d spans joined the caller trace, want the request plus inner work", inTrace)
	}
}

// TestTracedRequestWithoutHeaderStartsFreshTrace checks that headerless
// requests still get a ring entry with a nonzero self-assigned trace ID.
func TestTracedRequestWithoutHeaderStartsFreshTrace(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{cacheDir: t.TempDir()})
	code, _ := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil)
	if code != http.StatusOK {
		t.Fatalf("retarget: %d", code)
	}
	var dump obs.SpanDump
	getJSON(t, ts.URL+"/v1/debug/spans", &dump)
	for _, rec := range dump.Spans {
		if rec.Name == "recordd.retarget" {
			if rec.Trace == "" || rec.Trace == strings.Repeat("0", 32) {
				t.Fatalf("request span has no trace identity: %+v", rec)
			}
			return
		}
	}
	t.Fatalf("no recordd.retarget span in the ring: %+v", dump.Spans)
}

// TestHealthzReportsSLO asserts /healthz carries the burn-rate snapshot
// for every configured route.
func TestHealthzReportsSLO(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{cacheDir: t.TempDir()})
	code, _ := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil)
	if code != http.StatusOK {
		t.Fatalf("retarget: %d", code)
	}

	var hz struct {
		SLO map[string]obs.SLOStatus `json:"slo"`
	}
	getJSON(t, ts.URL+"/healthz", &hz)
	for _, route := range []string{"retarget", "compile", "batch"} {
		if _, ok := hz.SLO[route]; !ok {
			t.Fatalf("healthz slo missing route %q: %v", route, hz.SLO)
		}
	}
	st := hz.SLO["retarget"]
	if st.Target == "" {
		t.Fatalf("retarget SLO has no latency target: %+v", st)
	}
	if st.Page || st.Warn {
		t.Fatalf("healthy server paging: %+v", st)
	}
}

// TestSpanRingDropCounterExposed bounds the ring at two spans so a single
// request overflows it, then checks the drop shows up on /metrics.
func TestSpanRingDropCounterExposed(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{cacheDir: t.TempDir(), traceSpans: 2})
	for i := 0; i < 3; i++ {
		code, _ := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, nil)
		if code != http.StatusOK {
			t.Fatalf("retarget %d: %d", i, code)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "record_obs_spans_dropped_total ") {
			found = true
			var v float64
			if _, err := fmt.Sscanf(line, "record_obs_spans_dropped_total %f", &v); err != nil || v <= 0 {
				t.Fatalf("drop counter not incremented: %q", line)
			}
		}
	}
	if !found {
		t.Fatalf("record_obs_spans_dropped_total not exposed:\n%s", text)
	}
	// The SLO gauges ride the same scrape (Refresh runs before exposition).
	if !strings.Contains(text, `record_recordd_slo_burn_ppm{route="retarget",window="fast"}`) {
		t.Fatalf("slo burn gauges not exposed:\n%s", text)
	}
}
