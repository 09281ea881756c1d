package rclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

// fastPolicy retries immediately so tests do not sleep.
func fastPolicy(attempts int) resilience.Policy {
	return resilience.Policy{
		MaxAttempts: attempts,
		Base:        time.Millisecond,
		Cap:         time.Millisecond,
		Rand:        func(max time.Duration) time.Duration { return 0 },
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
}

func TestCompileRetriesThroughTransientFailure(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"draining"}`))
			return
		}
		w.Write([]byte(`{"key":"k","name":"demo","cache":"hit","seq_len":3,"code_len":2,"words":[1,2]}`))
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	var hinted []time.Duration
	c.Policy = fastPolicy(3)
	c.Policy.Cap = 10 * time.Second // leave room for the server's hint
	c.Policy.Sleep = func(_ context.Context, d time.Duration) error {
		hinted = append(hinted, d)
		return nil
	}
	res, err := c.Compile(context.Background(), ModelRef{ModelName: "demo"}, "x = 1;", CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if res.CodeLen != 2 || res.Name != "demo" || len(res.Words) != 2 {
		t.Fatalf("result %+v", res)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (one transient failure, one success)", got)
	}
	if len(hinted) != 1 || hinted[0] != time.Second {
		t.Fatalf("retry waits %v, want the server's 1s Retry-After", hinted)
	}
}

func TestTerminalStatusDoesNotRetry(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		w.Write([]byte(`{"error":"no rule covers tree"}`))
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Policy = fastPolicy(4)
	_, err := c.Compile(context.Background(), ModelRef{ModelName: "demo"}, "bad", CompileOptions{})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusUnprocessableEntity {
		t.Fatalf("err %v, want 422 StatusError", err)
	}
	if se.Msg != "no rule covers tree" {
		t.Fatalf("message %q", se.Msg)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (422 is terminal)", got)
	}
}

func TestStatusErrorTransience(t *testing.T) {
	for status, want := range map[int]bool{
		429: true, 500: true, 502: true, 503: true, 504: true,
		400: false, 404: false, 422: false,
	} {
		se := &StatusError{Status: status}
		if got := resilience.IsTransient(se); got != want {
			t.Errorf("status %d transient=%v, want %v", status, got, want)
		}
	}
}

func TestHealthz(t *testing.T) {
	var draining atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"ok":false,"draining":true}`))
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("healthy service: %v", err)
	}
	draining.Store(true)
	err := c.Healthz(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz err %v, want 503", err)
	}
}
