// Fleet trace assembly: one traced compile through the fleet client
// lands on the model's ring owner, which retargets it, and records spans
// under the client's single trace ID.  No other node takes part — nodes
// never call each other — so the other two rings hold nothing under the
// trace, and cmd/tracefuse's library joins the client's ring and the
// serving node's into one Chrome trace with two pid lanes.
//
// Runs under the fleet chaos harness's child re-exec; `go test -short`
// skips it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/rclient"
	"repro/internal/tracefuse"
)

func TestFleetChaosTraceAssembly(t *testing.T) {
	skipChaos(t)
	_, urls, byURL := bootFleet(t)

	// The artifact key is computable without retargeting, so the test
	// knows which node the fleet client routes the model to.
	src, ok := models.Get("demo")
	if !ok {
		t.Fatal("bundled model demo missing")
	}
	key := artifact.Key(src, core.RetargetOptions{})
	serving := byURL[fleet.NewRing(fleet.DefaultVirtualNodes, urls...).Successors(key, 1)[0]]
	t.Logf("artifact %.12s… routes to %s", key, serving.id)

	fl, err := rclient.New(urls)
	if err != nil {
		t.Fatal(err)
	}

	// The traced compile: a client-side root span rides the context into
	// rclient, which ships the trace in X-Record-Trace.
	ctx := context.Background()
	tracer := obs.NewTracer()
	root, scope := obs.NewScope(obs.NewRegistry(), tracer).Start("record.run")
	res, err := fl.Compile(
		obs.ContextWithScope(ctx, scope),
		rclient.ModelRef{ModelName: "demo"}, "int a = 2; int b = 3; int y; y = a + b;",
		rclient.CompileOptions{})
	if err != nil {
		t.Fatalf("traced compile: %v", err)
	}
	tid := root.Context().Trace.String()
	root.End()
	if res.Cache != "miss" {
		t.Fatalf("compile outcome %q, want miss (a retarget on the serving node)", res.Cache)
	}
	if res.Key != key {
		t.Fatalf("server key %s differs from client-side key %s", res.Key, key)
	}
	if res.Trace != tid {
		t.Fatalf("response echoed trace %q, want the client root %q", res.Trace, tid)
	}

	// The client ring and the serving node's hold the trace; the other
	// two nodes hold nothing under it.
	dumps := []obs.SpanDump{tracer.Dump("client")}
	fetched, err := tracefuse.Fetch(ctx, nil, urls)
	if err != nil {
		t.Fatal(err)
	}
	dumps = append(dumps, fetched...)
	for _, d := range dumps {
		found := false
		for _, rec := range d.Spans {
			if rec.Trace == tid {
				found = true
				break
			}
		}
		if want := d.Node == "client" || d.Node == serving.id; found != want {
			t.Errorf("node %s holds a span under trace %s: %v, want %v", d.Node, tid, found, want)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Fusion joins the rings into one Chrome trace with a pid lane per
	// process that holds the trace.
	fused, err := tracefuse.Fuse(dumps, tracefuse.Options{Trace: tid})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fused.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Pid  int                    `json:"pid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid chrome trace: %v", err)
	}
	lanes := map[string]bool{}
	spansByPid := map[int]int{}
	for _, ev := range out.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			lanes[ev.Args["name"].(string)] = true
			continue
		}
		spansByPid[ev.Pid]++
	}
	if len(lanes) != 2 || !lanes["client"] || !lanes[serving.id] {
		t.Errorf("fused trace lanes %v, want client and %s", lanes, serving.id)
	}
	if len(spansByPid) != 2 {
		t.Errorf("spans landed in %d pid lanes, want 2: %v", len(spansByPid), spansByPid)
	}
}
