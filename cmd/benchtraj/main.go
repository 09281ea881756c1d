// Command benchtraj appends BenchmarkParallelCompile results to the bench
// trajectory file — a JSON array tracking parallel-compile throughput
// across commits, so scaling regressions show up as data rather than
// anecdotes.  BenchmarkCompile{Baseline,Traced} lines land in
// compile_ns_per_op — the per-compile cost without and with a live
// span-producing obs scope (repeat lines from -count N keep the minimum,
// so the floors are noise-free).  BenchmarkCompileTracedOverhead's "overhead" metric —
// measured by interleaving plain and traced compiles so machine-load
// drift cancels out of the ratio — lands in traced_overhead, which
// -max-traced-overhead turns into a CI ceiling on the tracing tax.
//
// Usage:
//
//	go test -bench BenchmarkParallelCompile -benchtime 1s . | benchtraj -out bench/trajectory.json -label "$SHA"
//
// The tool parses the standard `go test -bench` text format, keeps only
// BenchmarkParallelCompile<N> lines, and appends one entry per invocation:
//
//	{"label": "...", "ns_per_op": {"1": 527672, "4": 1268698},
//	 "speedup_at_4": 0.41}
//
// speedup_at_4 is ns/op(1 worker) / ns/op(4 workers): >1 means parallel
// compilation pays off (expect near-linear on multicore; ~1 or below on a
// single-CPU runner where workers only add scheduling overhead).
//
// With -phase-trace the entry additionally carries per-phase wall time
// summed from a Chrome trace produced by `record -trace`:
//
//	record -model demo -kernel fir -trace out.json
//	benchtraj -phase-trace out.json -out bench/trajectory.json -label "$SHA"
//
// When -phase-trace is given, bench input is optional: an entry with only
// phase_seconds is still recorded.
//
// Each new entry is stamped with its host: num_cpu and go_version from
// the running toolchain, gomaxprocs from the -N suffix go test puts on
// benchmark names (none means 1), and cpu from the output's cpu: line.
// Older entries carry no stamp and are rewritten as they are.
//
// Older entries carry server_ns_per_op (recordd request latency from a
// retired in-process benchmark); Entry keeps the field so an append
// rewrites those entries byte for byte.  Service latency is measured by
// bench/recordbench instead.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
)

// Entry is one benchmark run in the trajectory.
type Entry struct {
	Label          string             `json:"label"`
	NumCPU         int                `json:"num_cpu,omitempty"`
	GOMAXPROCS     int                `json:"gomaxprocs,omitempty"`
	GoVersion      string             `json:"go_version,omitempty"`
	CPU            string             `json:"cpu,omitempty"`
	NsPerOp        map[string]float64 `json:"ns_per_op,omitempty"`
	SpeedupAt4     float64            `json:"speedup_at_4,omitempty"`
	SpeedupAt16    float64            `json:"speedup_at_16,omitempty"`
	ServerNsPerOp  map[string]float64 `json:"server_ns_per_op,omitempty"` // past entries only
	CompileNsPerOp map[string]float64 `json:"compile_ns_per_op,omitempty"`
	TracedOverhead float64            `json:"traced_overhead,omitempty"`
	PhaseSeconds   map[string]float64 `json:"phase_seconds,omitempty"`
}

// errNoBench marks input that contained no benchmark lines — fatal on its
// own, tolerated when a phase trace supplies the entry's payload instead.
var errNoBench = errors.New("benchtraj: no BenchmarkParallelCompile or BenchmarkCompile{Baseline,Traced,TracedOverhead} lines in input")

var (
	benchLine    = regexp.MustCompile(`^BenchmarkParallelCompile(\d+)\S*\s+\d+\s+([\d.]+) ns/op`)
	compileLine  = regexp.MustCompile(`^BenchmarkCompile(Baseline|Traced)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op`)
	overheadLine = regexp.MustCompile(`^BenchmarkCompileTracedOverhead\S*\s+\d+\s+[\d.]+ ns/op\s+([\d.]+) overhead`)
	procsLine    = regexp.MustCompile(`^Benchmark\S*?(?:-(\d+))?\s+\d+\s`)
	cpuLine      = regexp.MustCompile(`^cpu: (.+)$`)
)

// compileKeys maps BenchmarkCompile<Suffix> onto trajectory keys.
var compileKeys = map[string]string{"Baseline": "base", "Traced": "traced"}

// parse extracts worker-count → ns/op (parallel-compile lines),
// base/traced → ns/op (single-compile observability cost lines) and the
// interleaved traced/base overhead ratio from `go test -bench` output,
// plus the host's GOMAXPROCS and CPU model.  The compile pair and the
// overhead ratio keep the MINIMUM across repeated lines, so CI can run
// them with -count N and gate on the noise-free floor rather than on
// whichever single run the scheduler disturbed.  GOMAXPROCS stays 0
// when benchmark lines disagree on it.
func parse(r io.Reader) (Entry, error) {
	ns := make(map[string]float64)
	compile := make(map[string]float64)
	var overhead float64
	e := Entry{GOMAXPROCS: -1}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if m := cpuLine.FindStringSubmatch(line); m != nil {
			e.CPU = m[1]
			continue
		}
		if m := procsLine.FindStringSubmatch(line); m != nil {
			procs := 1
			if m[1] != "" {
				procs, _ = strconv.Atoi(m[1])
			}
			switch e.GOMAXPROCS {
			case -1:
				e.GOMAXPROCS = procs
			case procs:
			default:
				e.GOMAXPROCS = 0
			}
		}
		if m := overheadLine.FindStringSubmatch(line); m != nil {
			v, perr := strconv.ParseFloat(m[1], 64)
			if perr != nil {
				return Entry{}, fmt.Errorf("benchtraj: bad overhead in %q: %w", line, perr)
			}
			if overhead == 0 || v < overhead {
				overhead = v
			}
			continue
		}
		if m := benchLine.FindStringSubmatch(line); m != nil {
			v, perr := strconv.ParseFloat(m[2], 64)
			if perr != nil {
				return Entry{}, fmt.Errorf("benchtraj: bad ns/op in %q: %w", line, perr)
			}
			ns[m[1]] = v
			continue
		}
		if m := compileLine.FindStringSubmatch(line); m != nil {
			key := compileKeys[m[1]]
			v, perr := strconv.ParseFloat(m[2], 64)
			if perr != nil {
				return Entry{}, fmt.Errorf("benchtraj: bad ns/op in %q: %w", line, perr)
			}
			if prev, ok := compile[key]; !ok || v < prev {
				compile[key] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Entry{}, err
	}
	if len(ns) == 0 && len(compile) == 0 && overhead == 0 {
		return Entry{}, errNoBench
	}
	e.GOMAXPROCS = max(e.GOMAXPROCS, 0)
	e.NsPerOp, e.CompileNsPerOp, e.TracedOverhead = ns, compile, overhead
	return e, nil
}

// parsePhaseTrace sums span durations per name from a Chrome trace_event
// JSON file (as written by `record -trace`), in seconds.
func parsePhaseTrace(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		return nil, fmt.Errorf("benchtraj: %s is not a Chrome trace: %w", path, err)
	}
	phases := make(map[string]float64)
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		phases[ev.Name] += ev.Dur / 1e6 // trace durations are microseconds
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("benchtraj: no complete (ph=X) events in %s", path)
	}
	return phases, nil
}

// appendEntry loads the trajectory array (missing file = empty), appends,
// and writes it back pretty-printed.
func appendEntry(path string, e Entry) error {
	var entries []Entry
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &entries); err != nil {
			return fmt.Errorf("benchtraj: %s is not a trajectory array: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	entries = append(entries, e)
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// countEntries returns the number of entries in a trajectory file; a
// missing file counts as zero.  CI compares the count before and after
// its bench append so a silently-empty bench run fails the job instead
// of shipping a trajectory that stopped growing.
func countEntries(path string) (int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return 0, fmt.Errorf("benchtraj: %s is not a trajectory array: %w", path, err)
	}
	return len(entries), nil
}

// prevSlack is the tolerance the "prev" gate grants against run-to-run
// benchmark noise: the new entry may be up to 10% below the previous
// entry's speedup before the gate fails.
const prevSlack = 0.9

// gateSpeedup fails when the trajectory's newest entry regresses in
// parallel-compile speedup.  spec is either an absolute floor ("1.5") or
// "prev", which floors the new entry at prevSlack times the most recent
// earlier entry that recorded a speedup (nothing to compare against =
// pass: the gate bites from the second measured entry onward).
func gateSpeedup(path, spec string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return fmt.Errorf("benchtraj: %s is not a trajectory array: %w", path, err)
	}
	if len(entries) == 0 {
		return fmt.Errorf("benchtraj: %s has no entries to gate", path)
	}
	last := entries[len(entries)-1]
	if last.SpeedupAt4 == 0 {
		return fmt.Errorf("benchtraj: entry %q has no speedup_at_4; cannot gate", last.Label)
	}
	var min float64
	if spec == "prev" {
		for i := len(entries) - 2; i >= 0; i-- {
			if entries[i].SpeedupAt4 > 0 {
				min = entries[i].SpeedupAt4 * prevSlack
				break
			}
		}
		if min == 0 {
			return nil // first measured entry: nothing to regress from
		}
	} else {
		if min, err = strconv.ParseFloat(spec, 64); err != nil {
			return fmt.Errorf("benchtraj: -min-speedup-at-4 wants a number or \"prev\", got %q", spec)
		}
	}
	if last.SpeedupAt4 < min {
		return fmt.Errorf("benchtraj: speedup_at_4 regression: entry %q has %.3f, below the floor %.3f",
			last.Label, last.SpeedupAt4, min)
	}
	return nil
}

// gateTracedOverhead fails when the newest entry's traced compile costs
// more than ratio times its baseline compile — the observability layer's
// per-compile tax, gated so span plumbing on the hot path cannot creep.
// The interleaved traced_overhead measurement is preferred when the
// entry carries one (drift-immune by construction); otherwise the gate
// falls back to the ratio of the separately-timed pair's floors.  An
// entry with neither fails: a bench run that silently dropped its
// compile lines must not pass the gate it feeds.
func gateTracedOverhead(path, spec string) error {
	ratio, err := strconv.ParseFloat(spec, 64)
	if err != nil || ratio <= 0 {
		return fmt.Errorf("benchtraj: -max-traced-overhead wants a positive ratio, got %q", spec)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return fmt.Errorf("benchtraj: %s is not a trajectory array: %w", path, err)
	}
	if len(entries) == 0 {
		return fmt.Errorf("benchtraj: %s has no entries to gate", path)
	}
	last := entries[len(entries)-1]
	if last.TracedOverhead > 0 {
		if last.TracedOverhead > ratio {
			return fmt.Errorf("benchtraj: traced compile overhead %.4f exceeds the ceiling %.4f (interleaved measurement)",
				last.TracedOverhead, ratio)
		}
		return nil
	}
	base, traced := last.CompileNsPerOp["base"], last.CompileNsPerOp["traced"]
	if base <= 0 || traced <= 0 {
		return fmt.Errorf("benchtraj: entry %q has neither traced_overhead nor a compile_ns_per_op base/traced pair; cannot gate", last.Label)
	}
	if got := traced / base; got > ratio {
		return fmt.Errorf("benchtraj: traced compile overhead %.4f exceeds the ceiling %.4f (base %.0f ns/op, traced %.0f ns/op)",
			got, ratio, base, traced)
	}
	return nil
}

func run(in io.Reader, outPath, label, tracePath string) error {
	e, err := parse(in)
	if err != nil {
		// A run that only records phase timings has no bench lines to
		// parse; any other parse failure is still fatal.
		if !(errors.Is(err, errNoBench) && tracePath != "") {
			return err
		}
	}
	e.Label = label
	e.NumCPU, e.GoVersion = runtime.NumCPU(), runtime.Version()
	if len(e.NsPerOp) == 0 {
		e.NsPerOp = nil
	}
	if len(e.CompileNsPerOp) == 0 {
		e.CompileNsPerOp = nil
	}
	ns := e.NsPerOp
	if n1, ok1 := ns["1"]; ok1 {
		if n4, ok4 := ns["4"]; ok4 && n4 > 0 {
			e.SpeedupAt4 = n1 / n4
		}
		if n16, ok16 := ns["16"]; ok16 && n16 > 0 {
			e.SpeedupAt16 = n1 / n16
		}
	}
	if tracePath != "" {
		phases, err := parsePhaseTrace(tracePath)
		if err != nil {
			return err
		}
		e.PhaseSeconds = phases
	}
	return appendEntry(outPath, e)
}

func main() {
	inFile := flag.String("in", "-", "bench output file (- for stdin)")
	outFile := flag.String("out", "bench/trajectory.json", "trajectory JSON to append to")
	label := flag.String("label", "local", "label for this run (e.g. the commit SHA)")
	phaseTrace := flag.String("phase-trace", "", "Chrome trace JSON from `record -trace`; per-phase durations are added to the entry")
	entries := flag.String("entries", "", "print the entry count of this trajectory file and exit (missing file = 0)")
	minSpeedup := flag.String("min-speedup-at-4", "", "after appending, fail unless the new entry's speedup_at_4 meets this floor (a number, or \"prev\" for 90% of the previous entry)")
	maxTraced := flag.String("max-traced-overhead", "", "after appending, fail if the new entry's traced/base compile ratio exceeds this ceiling (e.g. 1.02 for 2%)")
	flag.Parse()

	if *entries != "" {
		n, err := countEntries(*entries)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		fmt.Println(n)
		return
	}

	in := io.Reader(os.Stdin)
	if *inFile != "-" {
		f, err := os.Open(*inFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtraj: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	if err := run(in, *outFile, *label, *phaseTrace); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	if *minSpeedup != "" {
		if err := gateSpeedup(*outFile, *minSpeedup); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
	}
	if *maxTraced != "" {
		if err := gateTracedOverhead(*outFile, *maxTraced); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
	}
}
