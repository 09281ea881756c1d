package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkParallelCompile1 	    2138	    527672 ns/op	  291766 B/op	    3951 allocs/op
BenchmarkParallelCompile2 	    2103	    603139 ns/op	  291934 B/op	    3953 allocs/op
BenchmarkParallelCompile4 	     870	   1268698 ns/op	  291604 B/op	    3947 allocs/op
BenchmarkParallelCompile8-4 	     894	   1493683 ns/op	  291576 B/op	    3944 allocs/op
BenchmarkParallelCompile16-4 	     612	   1655133 ns/op	  291580 B/op	    3944 allocs/op
BenchmarkParallelCompile32-4 	     433	   1892411 ns/op	  291587 B/op	    3945 allocs/op
BenchmarkCompileBaseline-4 	    2355	    248272 ns/op	   81876 B/op	    1880 allocs/op
BenchmarkCompileBaseline-4 	    3073	    199936 ns/op	   81858 B/op	    1880 allocs/op
BenchmarkCompileTraced-4   	    2341	    251843 ns/op	   83097 B/op	    1894 allocs/op
BenchmarkCompileTraced-4   	    2844	    201582 ns/op	   83073 B/op	    1894 allocs/op
BenchmarkCompileTracedOverhead-4 	    1204	    455813 ns/op	         1.031 overhead
BenchmarkCompileTracedOverhead-4 	    1311	    441209 ns/op	         1.012 overhead
PASS
ok  	repro	5.234s
`

func TestParse(t *testing.T) {
	e, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	ns, compile, overhead := e.NsPerOp, e.CompileNsPerOp, e.TracedOverhead
	if len(ns) != 6 || ns["1"] != 527672 || ns["8"] != 1493683 || ns["32"] != 1892411 {
		t.Fatalf("parsed %v", ns)
	}
	// Repeated -count lines keep the minimum of each half of the pair,
	// and of the interleaved overhead ratio.
	if len(compile) != 2 || compile["base"] != 199936 || compile["traced"] != 201582 {
		t.Fatalf("compile pair %v", compile)
	}
	if overhead != 1.012 {
		t.Fatalf("overhead = %v, want 1.012", overhead)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("no error for input without benchmark lines")
	}
}

// TestAppendKeepsPastServerNsPerOp: an append rewrites every earlier
// entry byte for byte, including the server_ns_per_op maps that only
// past entries carry — both for a synthetic trajectory and for the
// repository's own bench/trajectory.json.
func TestAppendKeepsPastServerNsPerOp(t *testing.T) {
	past, err := json.MarshalIndent([]Entry{{
		Label:         "past",
		NsPerOp:       map[string]float64{"1": 527672, "4": 1268698},
		SpeedupAt4:    527672.0 / 1268698.0,
		ServerNsPerOp: map[string]float64{"base": 353216, "qos": 221133.5, "shed": 137470},
	}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	repoTraj, err := os.ReadFile(filepath.Join("..", "..", "bench", "trajectory.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(repoTraj), `"server_ns_per_op"`) {
		t.Fatal("bench/trajectory.json has no server_ns_per_op entry to preserve")
	}
	for name, before := range map[string][]byte{"synthetic": append(past, '\n'), "bench/trajectory.json": repoTraj} {
		path := filepath.Join(t.TempDir(), "trajectory.json")
		if err := os.WriteFile(path, before, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(strings.NewReader(sample), path, "new", ""); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var old, grown []json.RawMessage
		if err := json.Unmarshal(before, &old); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(after, &grown); err != nil {
			t.Fatal(err)
		}
		if len(grown) != len(old)+1 {
			t.Fatalf("%s: append grew %d entries to %d", name, len(old), len(grown))
		}
		for i := range old {
			if !bytes.Equal(old[i], grown[i]) {
				t.Errorf("%s: entry %d rewritten:\n%s\nbecame\n%s", name, i, old[i], grown[i])
			}
		}
		if strings.Contains(string(grown[len(old)]), "server_ns_per_op") {
			t.Errorf("%s: new entry carries server_ns_per_op: %s", name, grown[len(old)])
		}
	}
}

func TestRunAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench", "trajectory.json")
	for _, label := range []string{"first", "second"} {
		if err := run(strings.NewReader(sample), path, label, ""); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("trajectory not valid JSON: %v\n%s", err, data)
	}
	if len(entries) != 2 || entries[0].Label != "first" || entries[1].Label != "second" {
		t.Fatalf("entries %+v", entries)
	}
	want := 527672.0 / 1268698.0
	if got := entries[0].SpeedupAt4; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("speedup_at_4 = %v, want %v", got, want)
	}
	want16 := 527672.0 / 1655133.0
	if got := entries[0].SpeedupAt16; got < want16-1e-9 || got > want16+1e-9 {
		t.Fatalf("speedup_at_16 = %v, want %v", got, want16)
	}
	if entries[0].CompileNsPerOp["base"] != 199936 || entries[0].CompileNsPerOp["traced"] != 201582 {
		t.Fatalf("compile_ns_per_op not persisted: %+v", entries[0])
	}
	if entries[0].TracedOverhead != 1.012 {
		t.Fatalf("traced_overhead not persisted: %+v", entries[0])
	}
}

func TestRunRejectsCorruptTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trajectory.json")
	if err := os.WriteFile(path, []byte("{not an array"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(sample), path, "x", ""); err == nil {
		t.Fatal("corrupt trajectory accepted")
	}
}

// TestRunStampsHost: a new entry records the host it ran on — CPU count
// and Go version from the toolchain, GOMAXPROCS from the benchmark names'
// -N suffix (none means 1, a mix means unknown) and the CPU model from
// the cpu: line.
func TestRunStampsHost(t *testing.T) {
	const two = `goos: linux
cpu: AMD EPYC 7B13
BenchmarkParallelCompile1-2 	    2138	    527672 ns/op
BenchmarkCompileBaseline-2 	    2355	    248272 ns/op
BenchmarkRetargetCached/demo/Cold-2 	    1	    4248272 ns/op
`
	for _, tc := range []struct {
		name, in string
		procs    int
		cpu      string
	}{
		{"suffix", two, 2, "AMD EPYC 7B13"},
		{"no-suffix", "BenchmarkCompileBaseline \t 10\t 100 ns/op\n", 1, ""},
		{"mixed", sample, 0, "Intel(R) Xeon(R) Processor @ 2.10GHz"},
	} {
		path := filepath.Join(t.TempDir(), "trajectory.json")
		if err := run(strings.NewReader(tc.in), path, tc.name, ""); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var entries []Entry
		if err := json.Unmarshal(data, &entries); err != nil {
			t.Fatal(err)
		}
		e := entries[0]
		if e.NumCPU != runtime.NumCPU() || e.GoVersion != runtime.Version() ||
			e.GOMAXPROCS != tc.procs || e.CPU != tc.cpu {
			t.Errorf("%s: host stamp {num_cpu %d, go %q, gomaxprocs %d, cpu %q}, want {%d, %q, %d, %q}",
				tc.name, e.NumCPU, e.GoVersion, e.GOMAXPROCS, e.CPU,
				runtime.NumCPU(), runtime.Version(), tc.procs, tc.cpu)
		}
		if tc.procs == 0 && strings.Contains(string(data), `"gomaxprocs"`) {
			t.Errorf("%s: an unknown GOMAXPROCS is written: %s", tc.name, data)
		}
	}
}

const sampleTrace = `{"displayTimeUnit": "ms", "traceEvents": [
  {"name": "record.run", "ph": "X", "ts": 0, "dur": 5000, "pid": 1, "tid": 1},
  {"name": "retarget", "ph": "X", "ts": 10, "dur": 3000, "pid": 1, "tid": 1},
  {"name": "ise", "ph": "X", "ts": 20, "dur": 1000, "pid": 1, "tid": 1},
  {"name": "ise.dest", "ph": "X", "ts": 30, "dur": 400, "pid": 1, "tid": 1},
  {"name": "ise.dest", "ph": "X", "ts": 500, "dur": 600, "pid": 1, "tid": 1},
  {"name": "meta", "ph": "M", "ts": 0, "dur": 99, "pid": 1, "tid": 1}
]}`

func TestParsePhaseTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := os.WriteFile(path, []byte(sampleTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	phases, err := parsePhaseTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	// ise.dest durations sum across spans; the "M" metadata event is ignored.
	if phases["ise.dest"] != 0.001 || phases["retarget"] != 0.003 {
		t.Fatalf("phases %v", phases)
	}
	if _, ok := phases["meta"]; ok {
		t.Fatalf("metadata event counted as a phase: %v", phases)
	}
}

func TestRunPhaseTraceWithoutBench(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "out.json")
	if err := os.WriteFile(trace, []byte(sampleTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trajectory.json")
	// Empty bench input is tolerated when a phase trace is supplied...
	if err := run(strings.NewReader(""), path, "trace-only", trace); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].PhaseSeconds["record.run"] != 0.005 {
		t.Fatalf("entries %+v", entries)
	}
	if len(entries[0].NsPerOp) != 0 {
		t.Fatalf("trace-only entry has ns_per_op: %+v", entries[0])
	}
	// ...but not without one.
	if err := run(strings.NewReader(""), path, "none", ""); err == nil {
		t.Fatal("empty bench input accepted without a phase trace")
	}
}

// writeTrajectory writes a trajectory of entries with the given
// speedup_at_4 values (0 = entry without a measured speedup).
func writeTrajectory(t *testing.T, speedups ...float64) string {
	t.Helper()
	entries := make([]Entry, len(speedups))
	for i, s := range speedups {
		entries[i] = Entry{Label: "e", SpeedupAt4: s}
	}
	data, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trajectory.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateSpeedup covers the CI regression gate on speedup_at_4.
func TestGateSpeedup(t *testing.T) {
	cases := []struct {
		name     string
		speedups []float64
		spec     string
		wantErr  bool
	}{
		{"absolute-pass", []float64{0.80}, "0.5", false},
		{"absolute-fail", []float64{0.40}, "0.5", true},
		{"prev-pass-equal", []float64{0.80, 0.80}, "prev", false},
		{"prev-pass-within-slack", []float64{0.80, 0.75}, "prev", false},
		{"prev-fail-regression", []float64{0.80, 0.60}, "prev", true},
		{"prev-first-entry", []float64{0.80}, "prev", false},
		{"prev-skips-unmeasured", []float64{0.80, 0, 0.60}, "prev", true},
		{"bad-spec", []float64{0.80}, "fast", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTrajectory(t, tc.speedups...)
			err := gateSpeedup(path, tc.spec)
			if (err != nil) != tc.wantErr {
				t.Fatalf("gateSpeedup(%v, %q) = %v, wantErr=%v", tc.speedups, tc.spec, err, tc.wantErr)
			}
		})
	}
}

// TestGateSpeedupRejectsUnmeasuredHead fails the gate when the entry it is
// supposed to protect carries no speedup at all — a bench run that silently
// dropped its parallel lines must not pass.
func TestGateSpeedupRejectsUnmeasuredHead(t *testing.T) {
	path := writeTrajectory(t, 0.80, 0)
	if err := gateSpeedup(path, "prev"); err == nil {
		t.Fatal("entry without speedup_at_4 passed the gate")
	}
	if err := gateSpeedup(writeTrajectory(t), "0.5"); err == nil {
		t.Fatal("empty trajectory passed the gate")
	}
}

// writeCompileTrajectory writes a one-entry trajectory with the given
// compile_ns_per_op pair (zeroes are omitted).
func writeCompileTrajectory(t *testing.T, base, traced float64) string {
	t.Helper()
	e := Entry{Label: "head", CompileNsPerOp: map[string]float64{}}
	if base > 0 {
		e.CompileNsPerOp["base"] = base
	}
	if traced > 0 {
		e.CompileNsPerOp["traced"] = traced
	}
	data, err := json.Marshal([]Entry{e})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trajectory.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateTracedOverhead covers the CI ceiling on the tracing tax.
func TestGateTracedOverhead(t *testing.T) {
	cases := []struct {
		name         string
		base, traced float64
		spec         string
		wantErr      bool
	}{
		{"within-ceiling", 200000, 203000, "1.02", false},
		{"at-ceiling", 200000, 204000, "1.02", false},
		{"over-ceiling", 200000, 210000, "1.02", true},
		{"missing-traced", 200000, 0, "1.02", true},
		{"missing-base", 0, 203000, "1.02", true},
		{"bad-spec", 200000, 203000, "fast", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeCompileTrajectory(t, tc.base, tc.traced)
			err := gateTracedOverhead(path, tc.spec)
			if (err != nil) != tc.wantErr {
				t.Fatalf("gateTracedOverhead(base=%v traced=%v, %q) = %v, wantErr=%v",
					tc.base, tc.traced, tc.spec, err, tc.wantErr)
			}
		})
	}
}

// TestGateTracedOverheadPrefersInterleaved: when the entry carries the
// drift-immune interleaved measurement, the gate judges that and ignores
// the separately-timed pair entirely.
func TestGateTracedOverheadPrefersInterleaved(t *testing.T) {
	write := func(overhead float64, pair map[string]float64) string {
		t.Helper()
		data, err := json.Marshal([]Entry{{Label: "head", TracedOverhead: overhead, CompileNsPerOp: pair}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "trajectory.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Interleaved ratio within the ceiling passes even with no pair at all.
	if err := gateTracedOverhead(write(1.011, nil), "1.02"); err != nil {
		t.Fatalf("clean interleaved measurement failed the gate: %v", err)
	}
	// Interleaved ratio over the ceiling fails even when the pair looks fine.
	if err := gateTracedOverhead(write(1.05, map[string]float64{"base": 200000, "traced": 201000}), "1.02"); err == nil {
		t.Fatal("over-ceiling interleaved measurement passed the gate")
	}
}

// TestCountEntriesGuardsGrowth covers the CI guard: the count is 0 for a
// missing file, grows by exactly one per append, and a corrupt file is an
// error rather than a silent zero.
func TestCountEntriesGuardsGrowth(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trajectory.json")
	if n, err := countEntries(out); err != nil || n != 0 {
		t.Fatalf("countEntries(missing) = (%d, %v), want (0, nil)", n, err)
	}
	before, _ := countEntries(out)
	if err := run(strings.NewReader(sample), out, "a", ""); err != nil {
		t.Fatal(err)
	}
	after, err := countEntries(out)
	if err != nil {
		t.Fatal(err)
	}
	if after != before+1 {
		t.Fatalf("append grew count %d -> %d, want +1", before, after)
	}
	if err := run(strings.NewReader(sample), out, "b", ""); err != nil {
		t.Fatal(err)
	}
	if n, _ := countEntries(out); n != 2 {
		t.Fatalf("second append: count = %d, want 2", n)
	}
	// A bench run that produced no usable output must NOT grow the file —
	// that is exactly the condition the CI guard turns into a failure.
	if err := run(strings.NewReader("PASS\nok repro 1s\n"), out, "empty", ""); err == nil {
		t.Fatal("empty bench input did not error")
	}
	if n, _ := countEntries(out); n != 2 {
		t.Fatalf("empty bench input changed the count to %d", n)
	}
	if err := os.WriteFile(out, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := countEntries(out); err == nil {
		t.Fatal("corrupt trajectory file did not error")
	}
}
