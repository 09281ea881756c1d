package main

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the testdata golden response bodies")

const pipelineProg = "int a = 2; int b = 3; int y; y = a + b;"

type postRoute struct {
	name, path string
	body       interface{}
}

// postRoutes are the two POST endpoints with one valid body each, by
// bundled model name.
var postRoutes = []postRoute{
	{"retarget", "/v1/retarget", map[string]string{"model_name": "demo"}},
	{"compile", "/v1/compile", map[string]string{"model_name": "demo", "source": pipelineProg}},
}

// metricValue reads one series from a /metrics scrape; an absent series
// reads as zero.
func metricValue(t *testing.T, base, series string) int {
	t.Helper()
	for _, line := range strings.Split(scrapeMetrics(t, base), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, v)
			}
			return n
		}
	}
	return 0
}

// TestRefusalContract pins what a client sees when recordd refuses work,
// on every POST route: an open circuit is 503 kind "open", a shed is 429
// kind "overload", a draining node is 503 kind "draining"; each carries
// Retry-After and lands in exactly the counters that name it.
func TestRefusalContract(t *testing.T) {
	cases := []struct {
		name   string
		status int
		kind   string
		// refuse puts the server into the refusing state and returns its
		// undo, run after the request.
		refuse func(t *testing.T, s *server, ts string) func()
	}{
		{"open", http.StatusServiceUnavailable, "open", func(t *testing.T, s *server, ts string) func() {
			var rt retargetResponse
			if code, raw := post(t, ts+"/v1/retarget", map[string]string{"model_name": "demo"}, &rt); code != http.StatusOK {
				t.Fatalf("warm retarget: %d %s", code, raw)
			}
			for i := 0; i < 4; i++ {
				s.brk.Record(rt.Key, false)
			}
			return func() {}
		}},
		{"shed", http.StatusTooManyRequests, "overload", func(t *testing.T, s *server, ts string) func() {
			hold, err := s.pool.acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// One waiter fills the queue, so any arrival is shed.
			ctx, cancel := context.WithCancel(context.Background())
			waited := make(chan struct{})
			go func() {
				defer close(waited)
				if release, err := s.pool.acquire(ctx); err == nil {
					release()
				}
			}()
			waitCond(t, "the queue to fill", func() bool { return s.gQueue.Value() == 1 })
			return func() {
				cancel()
				<-waited
				hold()
			}
		}},
		{"draining", http.StatusServiceUnavailable, "draining", func(t *testing.T, s *server, ts string) func() {
			s.beginDrain()
			return func() {}
		}},
	}
	for _, rt := range postRoutes {
		for _, c := range cases {
			t.Run(rt.name+"/"+c.name, func(t *testing.T) {
				s, ts := newTestServer(t, serverConfig{
					workers: 1, maxQueue: 1, brkWindow: 4, brkCooldown: time.Minute,
				})
				undo := c.refuse(t, s, ts.URL)
				defer undo()

				errSeries := `record_recordd_errors_total{status="` + strconv.Itoa(c.status) + `"}`
				const shedSeries = "record_recordd_shed_total"
				const rejSeries = "record_recordd_breaker_rejections_total"
				errs0 := metricValue(t, ts.URL, errSeries)
				shed0 := metricValue(t, ts.URL, shedSeries)
				rej0 := metricValue(t, ts.URL, rejSeries)

				code, hdr, raw, err := rawPost(ts.URL+rt.path, rt.body)
				if err != nil {
					t.Fatal(err)
				}
				if code != c.status {
					t.Fatalf("status %d, want %d: %s", code, c.status, raw)
				}
				if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
					t.Fatalf("Retry-After %q, want whole seconds >= 1", hdr.Get("Retry-After"))
				}
				var body errorResponse
				if err := json.Unmarshal([]byte(raw), &body); err != nil || body.Kind != c.kind || body.Error == "" {
					t.Fatalf("body %s, want an error of kind %q", raw, c.kind)
				}

				wantShed, wantRej := 0, 0
				switch c.name {
				case "shed":
					wantShed = 1
				case "open":
					wantRej = 1
				}
				for _, m := range []struct {
					series    string
					was, want int
				}{
					{errSeries, errs0, 1},
					{shedSeries, shed0, wantShed},
					{rejSeries, rej0, wantRej},
				} {
					if got := metricValue(t, ts.URL, m.series) - m.was; got != m.want {
						t.Errorf("%s moved by %d, want %d", m.series, got, m.want)
					}
				}
			})
		}
	}
}

// TestResponseGolden pins one success body per POST route byte for byte,
// so a change in how responses are rendered or written cannot change what
// clients receive.  Regenerate with go test -run TestResponseGolden
// -update after an intended output change.
func TestResponseGolden(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	for _, rt := range postRoutes {
		code, _, raw, err := rawPost(ts.URL+rt.path, rt.body)
		if err != nil || code != http.StatusOK {
			t.Fatalf("%s: %d %v %s", rt.name, code, err, raw)
		}
		path := filepath.Join("testdata", rt.name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if raw != string(want) {
			t.Errorf("%s body changed:\n got %q\nwant %q", rt.name, raw, want)
		}
	}
}

// TestBreakerKeyIsArtifactKey: the route cap is part of the artifact
// fingerprint, so with -max-routes set the circuit a request is gated on
// must still be the one its artifact key names — by-key and inline
// requests for one model share one circuit on every route.
func TestBreakerKeyIsArtifactKey(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{maxRoutes: 7, brkWindow: 4, brkCooldown: time.Minute})
	var rt retargetResponse
	if code, raw := post(t, ts.URL+"/v1/retarget", map[string]string{"model_name": "demo"}, &rt); code != http.StatusOK {
		t.Fatalf("retarget: %d %s", code, raw)
	}
	for i := 0; i < 4; i++ {
		s.brk.Record(rt.Key, false)
	}
	byKey := map[string]string{"key": rt.Key, "source": pipelineProg}
	for _, r := range append(postRoutes, postRoute{"compile by key", "/v1/compile", byKey}) {
		code, _, raw, err := rawPost(ts.URL+r.path, r.body)
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusServiceUnavailable || !strings.Contains(raw, `"kind":"open"`) {
			t.Errorf("%s with the artifact key's circuit open: %d %s, want 503 open", r.name, code, raw)
		}
	}
}
