package main

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// TestSmokeAllWorkloads runs every workload for one second, traced,
// against a real recordd built from this repository.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs recordd")
	}
	dir := t.TempDir()
	bin, err := buildRecordd(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 1997, seconds: 1, bin: bin, dir: dir, tracer: obs.NewTracer()}
	for _, w := range workloads {
		res, err := runWorkload(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d errors=%v", w.name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		for _, m := range e2eMetrics {
			if v, ok := res.Metrics[m.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, %v; want a positive value", w.name, m.name, v, ok)
			}
		}
		for _, m := range layerMetrics {
			if _, ok := res.Layers[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.name)
			}
		}
		reached := []string{"rclient.request_us", "recordd.handler_us", "recordd.transport_us"}
		switch w.name {
		case "compile":
			reached = append(reached, "compact.pack_us", "codegen.rts", "code_words", "rcache.mem_hit_ratio")
		case "retarget-cold":
			reached = append(reached, "ise.extract_us", "artifact.encode_us", "ise.templates", "artifact.bytes")
		case "retarget-churn":
			reached = append(reached, "artifact.decode_us", "artifact.restore_us", "rcache.disk_hit_us",
				"rcache.mem_hit_us", "rcache.disk_hit_ratio", "rcache.evictions_per_op")
		}
		for _, name := range reached {
			if res.Layers[name] <= 0 {
				t.Errorf("%s: per-layer metric %s = %v, want a positive value", w.name, name, res.Layers[name])
			}
		}
		if res.Layers["qos.coalesced"] != 0 || res.Layers["qos.shed"] != 0 {
			t.Errorf("%s: qos.coalesced=%v qos.shed=%v, want 0", w.name, res.Layers["qos.coalesced"], res.Layers["qos.shed"])
		}
	}
}
