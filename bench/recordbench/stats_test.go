package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// TestTailPercentileSampleRule: the reported tail is the highest
// percentile with at least ten samples beyond it.
func TestTailPercentileSampleRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.9}, {100, 0.9}, {99, 0.5}, {20, 0.5}, {19, 0}, {0, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < 10 {
			t.Errorf("tailPercentile(%d) = %g leaves only %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

// TestQuartilesMatchPython pins the values of Python's
// statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7, 1, 5}, 1, 5, 7},
		{[]float64{3, 9}, 1.5, 6, 10.5},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestTimingScalesToReference: a slice measured while the host ran at half
// the reference speed (host factor 2) reads twice the rate and half the
// times once scaled.
func TestTimingScalesToReference(t *testing.T) {
	sl := []slice{{lat: []float64{2, 4, 6, 8}, secs: 1, cpu: 40 * time.Millisecond, factor: 2}}
	raw, scaled := timing(sl, false), timing(sl, true)
	for name, want := range map[string]float64{"ops_per_s": 4, "p50_ms": 4, "p90_ms": 8, "server_cpu_ms_per_op": 10} {
		if raw[name] != want {
			t.Errorf("raw %s = %g, want %g", name, raw[name], want)
		}
	}
	for name, ratio := range map[string]float64{"ops_per_s": 2, "p50_ms": 0.5, "p90_ms": 0.5, "server_cpu_ms_per_op": 0.5} {
		if got := scaled[name] / raw[name]; math.Abs(got-ratio) > 1e-12 {
			t.Errorf("scaled %s / raw = %g, want %g", name, got, ratio)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", []float64{100, 99, 101, 100, 100, 102}, true, "same"},
		{"throughput drop", []float64{80, 81, 79, 80, 82, 78}, true, "worse"},
		{"throughput gain", []float64{120, 121, 119, 120, 122, 118}, true, "better"},
		{"latency gain", []float64{80, 81, 79, 80, 82, 78}, false, "better"},
		{"too noisy", []float64{60, 140, 90, 110, 70, 130}, true, "unresolved"},
	} {
		if got := verdict(steady, c.b, 0.1, c.higher); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSpecMatchesMetrics keeps BENCHMARK.json and the metrics the command
// prints in step.
func TestSpecMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metricSpec, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the command prints %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}

type metricSpec struct {
	Name, Unit, Better string
}
