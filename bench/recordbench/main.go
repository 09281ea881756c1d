// Command recordbench is the end-to-end and per-layer benchmark of recordd's
// compile and retarget paths.
//
// It builds cmd/recordd, then runs each workload against a fresh daemon:
// setup (exec to healthy, the workload's warm state and one pass over its
// distinct inputs, repeated and the median kept), a discarded warm-up, then
// a closed loop of one client on one connection for the measured window.
// The end-to-end times are scaled to a reference host speed measured by a
// probe (probe.go).  Every response is checked against in-process
// reference outputs.  With -trace 1 a traced
// run follows: the workload's seeded inputs are replayed one at a time,
// each layer's public function is called in-process on the same input
// inside a harness-side span, and per-layer medians are reported.  The
// spans are written as a Chrome trace.
//
// Run from the repository root (run.sh builds this command under
// .bench_build and passes the flags through):
//
//	bash bench/recordbench/run.sh -seed 1997 -out results.json
//	bash bench/recordbench/run.sh -workload compile -seconds 30 -trace 0
//	bash bench/recordbench/run.sh -compare 'base-*.json' 'new-*.json'
//
// Every metric is printed as "workload metric value unit"; the last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics.  The exit code is 0 when every output check passed,
// 1 when one failed, and 2 when the benchmark could not run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// metricDef names one reported metric.  The definitions must agree with
// BENCHMARK.json, which also holds each end-to-end metric's bound.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are what a user of recordd sees, measured with tracing off.
var e2eMetrics = []metricDef{
	{"ops_per_s", "ops/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"server_cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// layerMetrics come from the traced run, or from /metrics deltas around the
// load.  A layer a workload never reaches reads 0.
var layerMetrics = []metricDef{
	{"hdl.parse_us", "us", "lower"},
	{"netlist.elaborate_us", "us", "lower"},
	{"ise.extract_us", "us", "lower"},
	{"rewrite.extend_us", "us", "lower"},
	{"grammar.build_us", "us", "lower"},
	{"burs.parser_us", "us", "lower"},
	{"asm.freeze_us", "us", "lower"},
	{"artifact.encode_us", "us", "lower"},
	{"rcache.store_us", "us", "lower"},
	{"ise.templates", "count", "higher"},
	{"grammar.rules", "count", "lower"},
	{"artifact.bytes", "bytes", "lower"},
	{"artifact.decode_us", "us", "lower"},
	{"artifact.restore_us", "us", "lower"},
	{"rcache.disk_hit_us", "us", "lower"},
	{"rcache.mem_hit_us", "us", "lower"},
	{"rcache.mem_hit_ratio", "ratio", "higher"},
	{"rcache.disk_hit_ratio", "ratio", "lower"},
	{"rcache.evictions_per_op", "ratio", "lower"},
	{"cfront.parse_us", "us", "lower"},
	{"bind.lower_us", "us", "lower"},
	{"codegen.select_us", "us", "lower"},
	{"opt.peephole_us", "us", "lower"},
	{"compact.pack_us", "us", "lower"},
	{"compact.verify_us", "us", "lower"},
	{"asm.encode_us", "us", "lower"},
	{"asm.listing_us", "us", "lower"},
	{"codegen.rts", "count", "lower"},
	{"opt.rts_removed", "count", "higher"},
	{"compact.rts_per_word", "RTs/word", "higher"},
	{"code_words", "words", "lower"},
	{"rclient.request_us", "us", "lower"},
	{"recordd.handler_us", "us", "lower"},
	{"recordd.transport_us", "us", "lower"},
	{"service.overhead_us", "us", "lower"},
	{"qos.coalesced", "count", "lower"},
	{"qos.shed", "count", "lower"},
}

const (
	setupRuns = 7               // setups per run; setup_s is their median
	warmup    = 2 * time.Second // closed loop before the measured window, discarded
)

// result is one workload's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"` // requests completed in the measured window
	Metrics   map[string]float64 `json:"metrics"` // end-to-end, at the reference host speed
	Raw       map[string]float64 `json:"raw_metrics"`
	Factor    float64            `json:"host_factor"` // median over the window's slices
	Layers    map[string]float64 `json:"layers,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
}

// provenance stamps a result document with what it was measured on.
type provenance struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	StoreFS    string `json:"store_fs"`
}

type document struct {
	Provenance provenance `json:"provenance"`
	Seconds    int        `json:"seconds"`
	Results    []result   `json:"results"`
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	bin     string      // recordd binary
	dir     string      // scratch directory for stores
	tracer  *obs.Tracer // records the traced run; nil for -trace 0
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1997, "seed for the programs and the request order")
		seconds   = flag.Int("seconds", 30, "measured window per workload, in seconds")
		trace     = flag.Int("trace", 1, "1 runs the traced replay and reports per-layer metrics")
		traceFile = flag.String("trace-file", ".bench_build/recordbench-trace.json", "Chrome trace of the traced run")
		out       = flag.String("out", "", "write the results document (JSON) here")
		compare   = flag.Bool("compare", false, "compare two result sets: -compare 'a*.json' 'b*.json'")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result-file patterns"))
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}

	work, err := filepath.Abs(filepath.Join(".bench_build", "recordbench", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	cfg := config{seed: *seed, seconds: *seconds, dir: work}
	if cfg.bin, err = buildRecordd(work); err != nil {
		return fail(err)
	}
	traced := *trace == 1
	if traced {
		cfg.tracer = obs.NewTracer()
	}
	doc := document{Provenance: stamp(work), Seconds: *seconds}
	for _, w := range selected {
		res, err := runWorkload(context.Background(), cfg, w)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		printResult(os.Stdout, res, traced)
		doc.Results = append(doc.Results, *res)
	}
	if traced {
		if err := writeTrace(*traceFile, cfg.tracer); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			return fail(err)
		}
	}
	if !summary(os.Stdout, doc, traced) {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "recordbench: %v\n", err)
	return 2
}

// buildRecordd builds cmd/recordd into dir.  It runs from the repository
// root or from this module, where the replace directive finds the root.
func buildRecordd(dir string) (string, error) {
	bin := filepath.Join(dir, "recordd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/recordd")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build recordd: %w", err)
	}
	return bin, nil
}

// runWorkload measures one workload against its own recordd.
func runWorkload(ctx context.Context, cfg config, w workload) (*result, error) {
	p := newPlan(w, cfg.seed)
	ref, err := prepare(ctx, p)
	if err != nil {
		return nil, err
	}
	r := &runner{p: p, ref: ref, bin: cfg.bin, dir: cfg.dir, probe: newProbe()}
	// Each setup is scaled by the mean of the probe bursts around it.  The
	// last daemon serves the load.
	var setups, rawSetups []float64
	before := r.probe.factor()
	for i := 0; i < setupRuns; i++ {
		srv, d, err := r.setup(ctx, i)
		if err != nil {
			return nil, err
		}
		if i < setupRuns-1 {
			srv.stop()
			if err := os.RemoveAll(srv.store); err != nil {
				return nil, err
			}
		}
		after := r.probe.factor()
		rawSetups = append(rawSetups, d.Seconds())
		setups = append(setups, d.Seconds()/((before+after)/2))
		before = after
	}
	defer r.srv.stop()

	rc, s := newClient(r.srv.base), p.stream("load")
	s0, err := r.srv.metrics(ctx)
	if err != nil {
		return nil, err
	}
	var all window
	all.add(r.drive(ctx, rc, s, warmup))
	s1, err := r.srv.metrics(ctx)
	if err != nil {
		return nil, err
	}
	win, slices, err := r.measure(ctx, rc, s, time.Duration(cfg.seconds)*time.Second)
	all.add(win)
	if err != nil {
		return nil, err
	}
	s2, err := r.srv.metrics(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := r.srv.peakRSS()
	if err != nil {
		return nil, err
	}
	metrics, raw := timing(slices, true), timing(slices, false)
	metrics["peak_rss_mb"], raw["peak_rss_mb"] = rss, rss
	metrics["setup_s"], raw["setup_s"] = median(setups), median(rawSetups)
	var factors []float64
	for _, sl := range slices {
		factors = append(factors, sl.factor)
	}
	res := &result{Workload: w.name, Seed: cfg.seed, Samples: len(win.lat), Metrics: metrics, Raw: raw, Factor: median(factors)}
	// Name guards: a run that coalesced, shed or (on churn) retargeted
	// measured something other than its workload's name.
	guards := map[string]float64{
		"coalesced compiles": delta(s0, s2, "record_recordd_qos_coalesced_total"),
		"shed requests":      delta(s0, s2, "record_recordd_shed_total"),
	}
	if w.churn() {
		guards["retargets (cache misses)"] = delta(s0, s2, "record_rcache_misses_total")
	}
	for what, n := range guards {
		if n != 0 {
			all.failed += int(n)
			all.errs = append(all.errs, fmt.Sprintf("recordd reported %v %s", n, what))
		}
	}
	if cfg.tracer != nil {
		rp := &replay{r: r, tracer: cfg.tracer, times: map[string][]float64{}, counts: map[string][]float64{}}
		if res.Layers, err = rp.run(ctx, s0, s1, s2, len(win.lat)); err != nil {
			return nil, err
		}
		all.add(rp.wins)
	}
	res.Attempted, res.Failed, res.Errors = all.attempted, all.failed, all.errs
	res.Correct = all.failed == 0
	return res, nil
}

// stamp records the host and toolchain a result was measured on.
func stamp(storeDir string) provenance {
	pv := provenance{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", StoreFS: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		pv.Commit = strings.TrimSpace(string(out))
	}
	var st syscall.Statfs_t
	if syscall.Statfs(storeDir, &st) == nil {
		pv.StoreFS = fsName(int64(st.Type))
	}
	return pv
}

func fsName(magic int64) string {
	switch magic {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext2/3/4"
	}
	return fmt.Sprintf("0x%x", magic)
}

// printResult prints every metric as "workload metric value unit", the
// end-to-end ones followed by their raw value.
func printResult(w io.Writer, res *result, traced bool) {
	for _, m := range e2eMetrics {
		fmt.Fprintf(w, "%s %s %.6g %s (raw %.6g)\n", res.Workload, m.name, res.Metrics[m.name], m.unit, res.Raw[m.name])
	}
	fmt.Fprintf(w, "%s host_factor %.4g (probe time over its reference; raw = reference-speed value at this factor)\n", res.Workload, res.Factor)
	fmt.Fprintf(w, "%s samples %d requests in the window, %d beyond p90 (highest percentile with 10 beyond: p%g)\n",
		res.Workload, res.Samples, beyond(res.Samples, 0.9), tailPercentile(res.Samples)*100)
	if traced {
		for _, m := range layerMetrics {
			fmt.Fprintf(w, "%s %s %.6g %s\n", res.Workload, m.name, res.Layers[m.name], m.unit)
		}
	}
	fmt.Fprintf(w, "%s attempted %d failed %d\n", res.Workload, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "recordbench: %s: %s\n", res.Workload, e)
	}
}

// summary prints the closing JSON line and reports whether every check
// passed.  With one workload the metrics carry their plain names; with
// several each is prefixed by its workload.
func summary(w io.Writer, doc document, traced bool) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	defs, pick := e2eMetrics, func(r result) map[string]float64 { return r.Metrics }
	if traced {
		defs, pick = layerMetrics, func(r result) map[string]float64 { return r.Layers }
	}
	for _, r := range doc.Results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, m := range defs {
			key := m.name
			if len(doc.Results) > 1 {
				key = r.Workload + "." + m.name
			}
			line.Metrics[key] = value{pick(r)[m.name], m.unit}
		}
	}
	b, _ := json.Marshal(line) // plain structs and maps of numbers
	fmt.Fprintln(w, string(b))
	return line.Correct
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeTrace(path string, tr *obs.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
