package rclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

// fakeNode is a scriptable stand-in for one recordd instance: the test
// swaps its handler after fleet construction, once ring order is known.
type fakeNode struct {
	name    string
	srv     *httptest.Server
	handler atomic.Value // http.HandlerFunc
	hits    atomic.Int64
}

func newFakeNode(t *testing.T, name string) *fakeNode {
	t.Helper()
	n := &fakeNode{name: name}
	n.handler.Store(okCompileHandler(name))
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.hits.Add(1)
		n.handler.Load().(http.HandlerFunc)(w, r)
	}))
	t.Cleanup(n.srv.Close)
	return n
}

func (n *fakeNode) url() string { return n.srv.URL }

// okCompileHandler answers every compile with a result naming the node,
// so tests can tell which replica won.
func okCompileHandler(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(CompileResult{Key: "k", Name: name, Cache: "hit"})
	}
}

func drainingHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{
			"error": "service draining: retry in 1s",
			"kind":  "draining",
		})
	}
}

// newTestFleet builds a client over the nodes with instant retries.
func newTestFleet(t *testing.T, nodes ...*fakeNode) *Client {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url()
	}
	f, err := New(urls)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f.Policy = fastPolicy(3)
	return f
}

// byURL finds the fakeNode behind an endpoint URL.
func byURL(t *testing.T, nodes []*fakeNode, url string) *fakeNode {
	t.Helper()
	for _, n := range nodes {
		if n.url() == url {
			return n
		}
	}
	t.Fatalf("no fake node for %s", url)
	return nil
}

func TestFleetRoutesToRingOwner(t *testing.T) {
	a, b, c := newFakeNode(t, "a"), newFakeNode(t, "b"), newFakeNode(t, "c")
	nodes := []*fakeNode{a, b, c}
	f := newTestFleet(t, nodes...)

	ref := ModelRef{Key: strings.Repeat("ab", 32)}
	order := f.ring.Successors(ref.routeKey(), 3)
	owner := byURL(t, nodes, order[0])

	for i := 0; i < 5; i++ {
		res, err := f.Compile(context.Background(), ref, "x = 1", CompileOptions{})
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		if res.Name != owner.name {
			t.Fatalf("request %d answered by %q, want ring owner %q", i, res.Name, owner.name)
		}
	}
	for _, n := range nodes {
		if n != owner && n.hits.Load() != 0 {
			t.Errorf("non-owner %q saw %d requests, want 0", n.name, n.hits.Load())
		}
	}
}

func TestFleetFailoverConnectionRefused(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	nodes := []*fakeNode{a, b}
	f := newTestFleet(t, nodes...)

	ref := ModelRef{Key: strings.Repeat("cd", 32)}
	order := f.ring.Successors(ref.routeKey(), 2)
	primary, backup := byURL(t, nodes, order[0]), byURL(t, nodes, order[1])
	primary.srv.Close() // connections to the primary now refuse

	// Each compile fails over; the third consecutive refusal opens the
	// primary's circuit.
	for i := 0; i < 3; i++ {
		res, err := f.Compile(context.Background(), ref, "x = 1", CompileOptions{})
		if err != nil {
			t.Fatalf("Compile %d with dead primary: %v", i, err)
		}
		if res.Name != backup.name {
			t.Fatalf("answered by %q, want backup %q", res.Name, backup.name)
		}
	}
	if st := f.Breaker.State(order[0]); st != resilience.Open {
		t.Fatalf("dead primary is %v, want open", st)
	}
	if st := f.Breaker.State(order[1]); st != resilience.Closed {
		t.Fatalf("backup is %v, want closed", st)
	}
}

func TestFleetFailoverDraining(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	nodes := []*fakeNode{a, b}
	f := newTestFleet(t, nodes...)

	ref := ModelRef{Key: strings.Repeat("ef", 32)}
	order := f.ring.Successors(ref.routeKey(), 2)
	primary, backup := byURL(t, nodes, order[0]), byURL(t, nodes, order[1])
	primary.handler.Store(drainingHandler())

	res, err := f.Compile(context.Background(), ref, "x = 1", CompileOptions{})
	if err != nil {
		t.Fatalf("Compile with draining primary: %v", err)
	}
	if res.Name != backup.name {
		t.Fatalf("answered by %q, want backup %q", res.Name, backup.name)
	}
	// Failover happens inside one policy attempt: the walk moves to the
	// backup without sleeping out the draining node's Retry-After.
	if primary.hits.Load() != 1 || backup.hits.Load() != 1 {
		t.Fatalf("hits primary=%d backup=%d, want 1 and 1",
			primary.hits.Load(), backup.hits.Load())
	}
}

func TestFleetDrainingReconstructedOverWire(t *testing.T) {
	a := newFakeNode(t, "a")
	a.handler.Store(drainingHandler())
	f := newTestFleet(t, a)

	_, err := f.Compile(context.Background(), ModelRef{Key: strings.Repeat("01", 32)}, "x = 1", CompileOptions{})
	if err == nil {
		t.Fatal("Compile against lone draining node succeeded")
	}
	if !resilience.IsDraining(err) {
		t.Fatalf("error %v does not unwrap to DrainingError", err)
	}
	var se *StatusError
	if !asStatusError(err, &se) || se.Kind != "draining" || se.After != time.Second {
		t.Fatalf("got %#v, want draining StatusError with 1s hint", err)
	}
}

// TestFleetFailoverOpenBreaker: a node whose own circuit for the model
// is open refuses with a fast 503 {"kind":"open"}; the fleet fails over
// to the next replica within the same attempt.
func TestFleetFailoverOpenBreaker(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	nodes := []*fakeNode{a, b}
	f := newTestFleet(t, nodes...)

	ref := ModelRef{Key: strings.Repeat("23", 32)}
	order := f.ring.Successors(ref.routeKey(), 2)
	primary, backup := byURL(t, nodes, order[0]), byURL(t, nodes, order[1])
	primary.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "10")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{
			"error": "circuit open for " + ref.Key + ": retry in 10s",
			"kind":  "open",
		})
	}))

	res, err := f.Compile(context.Background(), ref, "x = 1", CompileOptions{})
	if err != nil {
		t.Fatalf("Compile with open primary circuit: %v", err)
	}
	if res.Name != backup.name {
		t.Fatalf("answered by %q, want backup %q", res.Name, backup.name)
	}
	if primary.hits.Load() != 1 || backup.hits.Load() != 1 {
		t.Fatalf("hits primary=%d backup=%d, want 1 and 1",
			primary.hits.Load(), backup.hits.Load())
	}
}

func TestFleetCallerErrorDoesNotFailOver(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	nodes := []*fakeNode{a, b}
	f := newTestFleet(t, nodes...)

	ref := ModelRef{Key: strings.Repeat("45", 32)}
	order := f.ring.Successors(ref.routeKey(), 2)
	primary, backup := byURL(t, nodes, order[0]), byURL(t, nodes, order[1])
	primary.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown key"})
	}))

	_, err := f.Compile(context.Background(), ref, "x = 1", CompileOptions{})
	var se *StatusError
	if !asStatusError(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("got %v, want 400 StatusError", err)
	}
	if backup.hits.Load() != 0 {
		t.Fatalf("4xx failed over to backup (%d hits)", backup.hits.Load())
	}
	if primary.hits.Load() != 1 {
		t.Fatalf("4xx retried against primary (%d hits)", primary.hits.Load())
	}
	if st := f.Breaker.State(order[0]); st != resilience.Closed {
		t.Fatalf("4xx moved primary health to %v", st)
	}
}

func TestFleetAllDownLastResort(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	f := newTestFleet(t, a, b)

	// Open both endpoints' circuits.
	for _, ep := range f.endpoints {
		for i := 0; i < 3; i++ {
			f.Breaker.Record(ep, false)
		}
		if f.Breaker.State(ep) != resilience.Open {
			t.Fatalf("setup: %s not open", ep)
		}
	}
	// Both nodes actually answer: the last-resort path must still reach
	// them rather than refuse with "no usable endpoints".
	res, err := f.Compile(context.Background(), ModelRef{Key: strings.Repeat("89", 32)}, "x = 1", CompileOptions{})
	if err != nil {
		t.Fatalf("Compile with all-down health state: %v", err)
	}
	if res.Name == "" {
		t.Fatal("empty result")
	}
}

func TestFleetRejectsEmptyEndpointList(t *testing.T) {
	if _, err := New([]string{" ", ""}); err == nil {
		t.Fatal("New accepted an empty endpoint list")
	}
	f, err := New([]string{"http://x:1/", " http://x:1"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if len(f.endpoints) != 1 || f.ring != nil {
		t.Fatalf("duplicates not collapsed: %v", f.endpoints)
	}
}

// TestUncontactedReplicaKeepsProbe: a request served by its ring owner
// must not claim the half-open probe of a replica it never contacts.  If
// it did, the recovered replica would refuse its own keys for another
// cooldown, and they would go to a node that does not own them.
func TestUncontactedReplicaKeepsProbe(t *testing.T) {
	x, y, z := newFakeNode(t, "x"), newFakeNode(t, "y"), newFakeNode(t, "z")
	f := newTestFleet(t, x, y, z)
	now := time.Unix(0, 0)
	f.Breaker = resilience.NewBreaker(resilience.BreakerConfig{
		Window: 3, MinSamples: 3, FailureRate: 1, Cooldown: time.Second,
		Now: func() time.Time { return now },
	})
	ownedBy := func(n *fakeNode) ModelRef {
		for i := 0; ; i++ {
			ref := ModelRef{Key: fmt.Sprintf("%064x", i)}
			if f.ring.Successors(ref.routeKey(), 1)[0] == n.url() {
				return ref
			}
		}
	}

	// y failed three times in a row; one cooldown later it may be probed.
	for i := 0; i < 3; i++ {
		f.Breaker.Record(y.url(), false)
	}
	now = now.Add(time.Second)
	if st := f.Breaker.State(y.url()); st != resilience.HalfOpen {
		t.Fatalf("setup: y is %v, want half-open", st)
	}

	// A request x owns is answered by x; y is a successor of its key but
	// is never contacted.
	res, err := f.Compile(context.Background(), ownedBy(x), "x = 1", CompileOptions{})
	if err != nil || res.Name != x.name {
		t.Fatalf("request owned by x: %v, %+v", err, res)
	}

	// y's probe is still free: y's own key goes to y, and the probe's
	// success closes y's circuit.
	res, err = f.Compile(context.Background(), ownedBy(y), "x = 1", CompileOptions{})
	if err != nil {
		t.Fatalf("request owned by y: %v", err)
	}
	if res.Name != y.name {
		t.Fatalf("request owned by recovered y answered by %q", res.Name)
	}
	if st := f.Breaker.State(y.url()); st != resilience.Closed {
		t.Fatalf("y is %v after its probe succeeded, want closed", st)
	}
	if y.hits.Load() != 1 || z.hits.Load() != 0 {
		t.Fatalf("hits y=%d z=%d, want 1 and 0", y.hits.Load(), z.hits.Load())
	}
}

func asStatusError(err error, out **StatusError) bool {
	return errors.As(err, out)
}
