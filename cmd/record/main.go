// Command record is the retargetable compiler driver: it retargets to an
// HDL processor model and compiles a RecC source program into compacted,
// encoded machine code.
//
// Usage:
//
//	record -model tms320c25 -src program.c [flags]
//	record -mdl processor.mdl -src program.c [flags]
//	record -model tms320c25 -jobs 4 a.c b.c c.c   (parallel batch)
//
// Positional arguments are RecC source files; the model is retargeted
// once and the files compile concurrently across -jobs workers (safe
// because retargeted targets are frozen).  Output appears in argument
// order.
//
// Flags (each maps onto the identically-spirited core.Config field, see
// README "Configuration"):
//
//	-model name        use a bundled processor model (see -list)
//	-mdl file          read an MDL processor model from file
//	-src file          RecC source program ("-" for stdin)
//	-jobs n            parallel workers for positional source files
//	-list              list bundled models
//	-naive             use the naive macro-expansion baseline
//	-no-compaction     disable code compaction
//	-no-peephole       disable redundant-load/dead-store elimination
//	-no-extension      disable template-base extension
//	-seq               print the sequential RT code as well
//	-stats             print retargeting and compilation statistics; with
//	                   -server, each response's Server-Timing header (the
//	                   serving node's own phase breakdown) as a
//	                   "server-timing:" line
//	-trace file        write a Chrome trace_event JSON file of the run
//	                   (open in chrome://tracing or Perfetto)
//	-run               execute on the netlist simulator and dump variables
//	-strict            treat warnings as errors
//	-max-errors n      stop after n errors (0 = unlimited)
//	-timeout d         wall-clock budget for the whole run (0 = unlimited)
//	-max-bdd-nodes n   cap the BDD universe during extraction
//	-max-routes n      cap route enumeration per traversal point
//	-server url        compile remotely against a running recordd, given
//	                   one base URL; the client retries transient
//	                   failures (429/5xx, Retry-After-aware).  The node
//	                   retargets under its own caps, so -no-extension,
//	                   -max-routes and -max-bdd-nodes are local-only,
//	                   like -seq and -run
//	-faultpoints s     arm fault-injection points (testing); "list"
//	                   prints every planted site and exits
//
// Exit codes: 0 success, 1 usage error, 2 input or compilation error
// (including warnings under -strict), 3 internal fault.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/cfront"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dspstone"
	"repro/internal/faultpoint"
	"repro/internal/hdl"
	"repro/internal/ir"
	"repro/internal/models"
	"repro/internal/naive"
	"repro/internal/obs"
	"repro/internal/rclient"
	"repro/internal/vhdl"
)

// Driver exit codes.
const (
	exitOK       = 0
	exitUsage    = 1 // bad flags or flag combinations
	exitInput    = 2 // model/program errors, oracle mismatches, -strict warnings
	exitInternal = 3 // recovered panics and other pipeline faults
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line: driver-only concerns (what to load,
// what to print) plus the pipeline knobs, which live in core.Config so the
// CLI and recordd share one validated surface.
type config struct {
	modelName, mdlFile, vhdlFile string
	srcFile, kernelName          string
	list, useNaive               bool
	showSeq, showStats, execute  bool

	traceFile   string
	faultpoints string
	serverURL   string   // remote compile against a recordd instance
	srcFiles    []string // positional: parallel multi-source mode

	core core.Config
}

// run is the testable driver entry point: it parses args, runs the
// pipeline, writes results to stdout and the diagnostic listing to stderr,
// and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	var c config
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.modelName, "model", "", "bundled processor model name")
	fs.StringVar(&c.mdlFile, "mdl", "", "MDL processor model file")
	fs.StringVar(&c.vhdlFile, "vhdl", "", "VHDL processor model file (translated to MDL)")
	fs.StringVar(&c.srcFile, "src", "", "RecC source file (- for stdin)")
	fs.StringVar(&c.kernelName, "kernel", "", "compile a bundled DSPStone kernel")
	fs.BoolVar(&c.list, "list", false, "list bundled models and kernels")
	fs.BoolVar(&c.useNaive, "naive", false, "use the naive baseline compiler")
	fs.BoolVar(&c.core.NoCompaction, "no-compaction", false, "disable code compaction")
	fs.BoolVar(&c.core.NoPeephole, "no-peephole", false, "disable peephole optimization")
	fs.BoolVar(&c.core.NoExtension, "no-extension", false, "disable template-base extension")
	fs.BoolVar(&c.showSeq, "seq", false, "print sequential RT code")
	fs.BoolVar(&c.showStats, "stats", false, "print statistics")
	fs.BoolVar(&c.execute, "run", false, "simulate and dump final variables")
	fs.StringVar(&c.traceFile, "trace", "", "write a Chrome trace_event JSON file of the run")
	fs.BoolVar(&c.core.Strict, "strict", false, "treat warnings as errors")
	fs.IntVar(&c.core.MaxErrors, "max-errors", 0, "stop after this many errors (0 = unlimited)")
	fs.DurationVar(&c.core.Timeout, "timeout", 0, "wall-clock budget for the whole run (0 = unlimited)")
	fs.IntVar(&c.core.MaxBDDNodes, "max-bdd-nodes", 0, "cap the BDD universe during extraction (0 = unlimited)")
	fs.IntVar(&c.core.ISE.MaxAlts, "max-routes", 0, "cap route enumeration per traversal point (0 = default)")
	fs.IntVar(&c.core.Jobs, "jobs", 1, "parallel workers for positional source files")
	fs.StringVar(&c.serverURL, "server", "",
		"compile against a running recordd instead of locally, given its base URL")
	fs.StringVar(&c.faultpoints, "faultpoints", "",
		"comma-separated fault injection specs name[@match]=kind[:arg][*times] (testing); \"list\" prints sites")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	c.srcFiles = fs.Args()
	if err := c.core.Validate(); err != nil {
		fmt.Fprintf(stderr, "record: %v\n", err)
		return exitUsage
	}

	if c.faultpoints == "list" {
		fmt.Fprintln(stdout, "faultpoint sites (arm with -faultpoints name[@match]=kind[:arg][*times]):")
		for _, site := range faultpoint.Sites() {
			fmt.Fprintf(stdout, "  %-24s %s\n", site.Name, site.Where)
		}
		return exitOK
	}
	if c.faultpoints != "" {
		for _, spec := range strings.Split(c.faultpoints, ",") {
			if err := faultpoint.ArmSpec(strings.TrimSpace(spec)); err != nil {
				fmt.Fprintf(stderr, "record: -faultpoints: %v\n", err)
				return exitUsage
			}
		}
		defer faultpoint.Reset()
	}

	if c.list {
		fmt.Fprintln(stdout, "bundled processor models:")
		for _, e := range models.All() {
			fmt.Fprintf(stdout, "  %-12s %s\n", e.Name, e.Description)
		}
		fmt.Fprintln(stdout, "bundled DSPStone kernels:")
		for _, k := range dspstone.Suite() {
			fmt.Fprintf(stdout, "  %-20s hand-written reference: %d words\n", k.Name, k.HandWords)
		}
		return exitOK
	}

	rep := c.core.Reporter()
	budget, cancel := c.core.Budget(context.Background())
	defer cancel()

	// -trace instruments the whole run: every pipeline phase and compile
	// stage spans under one record.run root, exported as Chrome
	// trace_event JSON on exit.  The registry rides along so pipeline
	// counters have somewhere to land.
	var tracer *obs.Tracer
	var rootSpan *obs.Span
	if c.traceFile != "" {
		tracer = obs.NewTracer()
		rootSpan, c.core.Obs = obs.NewScope(obs.NewRegistry(), tracer).Start("record.run")
	}

	err := compile(&c, rep, budget, stdout, stderr)
	if tracer != nil {
		rootSpan.End()
		if werr := writeTrace(c.traceFile, tracer); werr != nil {
			fmt.Fprintf(stderr, "record: -trace: %v\n", werr)
			if err == nil {
				err = werr
			}
		}
		if c.showStats && tracer.Dropped() > 0 {
			fmt.Fprintf(stdout, "trace: %d spans dropped past the ring bound\n", tracer.Dropped())
		}
	}
	listDiagnostics(stderr, rep, c.modelSourceName())
	switch {
	case err != nil:
		var ue *usageError
		if errors.As(err, &ue) {
			fmt.Fprintf(stderr, "record: %v\n", err)
			return exitUsage
		}
		var pe *diag.PanicError
		if errors.As(err, &pe) {
			fmt.Fprintf(stderr, "record: internal fault: %v\n", pe.Value)
			return exitInternal
		}
		// Positioned frontend errors already appear in the listing; avoid
		// repeating them as one mashed-together line.
		if len(hdl.Errors(err)) == 0 {
			fmt.Fprintf(stderr, "record: %v\n", err)
		}
		return exitInput
	case rep.Errors() > 0:
		// -strict promoted warnings, or phases reported errors while still
		// producing output.
		fmt.Fprintf(stderr, "record: failing due to %s\n", rep.Summary())
		return exitInput
	}
	return exitOK
}

// usageError marks command-line mistakes (exit code 1) as opposed to input
// or pipeline failures (exit code 2).
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usagef(format string, args ...interface{}) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// modelSourceName returns the name to prefix positioned diagnostics with.
func (c *config) modelSourceName() string {
	switch {
	case c.mdlFile != "":
		return c.mdlFile
	case c.vhdlFile != "":
		return c.vhdlFile
	case c.modelName != "":
		return c.modelName
	}
	return "model"
}

// listDiagnostics writes every collected diagnostic to stderr, prefixing
// positioned ones (frontend syntax errors) with the model source name so
// they read file:line:col.
func listDiagnostics(stderr io.Writer, rep *diag.Reporter, source string) {
	for _, d := range rep.Diags() {
		if d.Pos.IsValid() {
			fmt.Fprintf(stderr, "%s:%s\n", source, d)
		} else {
			fmt.Fprintln(stderr, d)
		}
	}
}

// compile runs the full pipeline per the parsed configuration.
func compile(c *config, rep *diag.Reporter, budget *diag.Budget, stdout, stderr io.Writer) error {
	if c.serverURL != "" {
		return compileRemote(c, budget, stdout)
	}
	mdl, err := loadModel(c.modelName, c.mdlFile, c.vhdlFile)
	if err != nil {
		return err
	}
	var src string
	if len(c.srcFiles) == 0 {
		if src, err = loadSource(c.srcFile, c.kernelName); err != nil {
			return err
		}
	} else if c.srcFile != "" || c.kernelName != "" {
		return usagef("use either -src/-kernel or positional source files, not both")
	}

	target, err := core.RetargetContext(context.Background(), mdl, c.core.Retarget(rep, budget))
	if err != nil {
		return err
	}
	if c.showStats {
		printRetargetStats(stdout, target)
	}

	// One Compiler for the whole run: every file and worker goroutine
	// compiles through its pooled sessions.
	comp, err := core.NewCompiler(target, c.core)
	if err != nil {
		return err
	}

	if len(c.srcFiles) > 0 {
		return compileMany(c, comp, budget, stdout, stderr)
	}
	return compileOne(c, comp, src, rep, budget, stdout)
}

// compileRemote compiles against a running recordd instead of the local
// pipeline.  The model is retargeted once server-side (paying at most one
// cache miss); programs then compile against the same model selector,
// which the node resolves from its cache.  The client retries transient
// failures (shed 429s, drain 503s, injected 5xx faults) with backoff and
// honors the service's Retry-After — a briefly unhealthy service costs
// latency, not a failed build.
func compileRemote(c *config, budget *diag.Budget, stdout io.Writer) error {
	switch {
	case strings.Contains(c.serverURL, ","):
		return usagef("-server takes one base URL, not a list: %q", c.serverURL)
	case c.useNaive:
		return usagef("-naive runs locally; it cannot be combined with -server")
	case c.execute:
		return usagef("-run (simulation) is local-only; it cannot be combined with -server")
	case c.showSeq:
		return usagef("-seq is local-only; it cannot be combined with -server")
	case c.core.NoExtension, c.core.ISE.MaxAlts != 0, c.core.MaxBDDNodes != 0:
		// The node retargets under its own -max-routes and -max-bdd-nodes,
		// and always extends the template base.
		return usagef("-no-extension, -max-routes and -max-bdd-nodes shape the retarget, which -server leaves to the node; drop them or compile locally")
	}

	// Bundled models go by name (the server has them); file-based models
	// ship their source inline.  VHDL is translated locally first.
	ref := rclient.ModelRef{ModelName: c.modelName}
	if c.modelName == "" {
		mdl, err := loadModel(c.modelName, c.mdlFile, c.vhdlFile)
		if err != nil {
			return err
		}
		ref = rclient.ModelRef{Model: mdl}
	}

	ctx := context.Background()
	if budget != nil && budget.Ctx != nil {
		ctx = budget.Ctx
	}
	// Under -trace the run's root scope rides the context, so every
	// request spans client-side; the server half of each request comes
	// back in its Server-Timing header, which -stats prints.
	ctx = obs.ContextWithScope(ctx, c.core.Obs)
	cl := rclient.NewClient(c.serverURL)
	rt, err := cl.Retarget(ctx, ref)
	if err != nil {
		return err
	}
	if c.showStats {
		state := "miss"
		if rt.Cache == "hit" || rt.Cache == "hit-disk" || rt.Cache == "coalesced" {
			state = "hit"
		}
		fmt.Fprintf(stdout, "cache: %s (remote)\n", state)
		fmt.Fprintf(stdout, "retargeted %s remotely: %d templates, %d rules\n",
			rt.Name, rt.Templates, rt.Rules)
		printServerTiming(stdout, rt.ServerTiming)
	}

	// Compiles name the model the same way the retarget did, not by its
	// key: a node that lost the artifact since (a restart without a
	// -cache-dir, an eviction) retargets it instead of answering 404.
	opts := rclient.CompileOptions{
		NoCompaction: c.core.NoCompaction,
		NoPeephole:   c.core.NoPeephole,
	}
	sources := c.srcFiles
	if len(sources) == 0 {
		src, err := loadSource(c.srcFile, c.kernelName)
		if err != nil {
			return err
		}
		res, err := cl.Compile(ctx, ref, src, opts)
		if err != nil {
			return err
		}
		printRemoteResult(stdout, res)
		if c.showStats {
			printServerTiming(stdout, res.ServerTiming)
		}
		return nil
	}
	var firstErr error
	failed := 0
	for _, file := range sources {
		fmt.Fprintf(stdout, "==> %s\n", file)
		src, err := os.ReadFile(file)
		if err == nil {
			var res *rclient.CompileResult
			if res, err = cl.Compile(ctx, ref, string(src), opts); err == nil {
				printRemoteResult(stdout, res)
			}
		}
		if err != nil {
			fmt.Fprintf(stdout, "record: %s: %v\n", file, err)
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		return fmt.Errorf("%d of %d source files failed: %w", failed, len(sources), firstErr)
	}
	return nil
}

// printRemoteResult writes a remote compile in the same shape as the local
// driver's output, so scripts cannot tell the difference.
func printRemoteResult(stdout io.Writer, res *rclient.CompileResult) {
	fmt.Fprintf(stdout, "code for %s: %d RT instructions in %d words\n\n",
		res.Name, res.SeqLen, res.CodeLen)
	fmt.Fprint(stdout, res.Listing)
}

// printServerTiming writes a response's Server-Timing header, as the
// serving node sent it; a response without one prints nothing.
func printServerTiming(stdout io.Writer, timing string) {
	if timing != "" {
		fmt.Fprintf(stdout, "server-timing: %s\n", timing)
	}
}

// compileMany compiles every positional source file against one frozen
// target, fanning files across -jobs workers.  Per-file output and
// diagnostics are buffered and replayed in argument order, so parallel
// runs are byte-identical to serial ones.
func compileMany(c *config, comp *core.Compiler, budget *diag.Budget, stdout, stderr io.Writer) error {
	type job struct {
		out, diags bytes.Buffer
		err        error
	}
	jobs := make([]job, len(c.srcFiles))
	sem := make(chan struct{}, c.core.JobCount())
	var wg sync.WaitGroup
	for i, file := range c.srcFiles {
		wg.Add(1)
		go func(i int, file string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			j := &jobs[i]
			rep := c.core.Reporter()
			src, err := os.ReadFile(file)
			if err != nil {
				j.err = err
				return
			}
			j.err = compileOne(c, comp, string(src), rep, budget, &j.out)
			listDiagnostics(&j.diags, rep, file)
			if j.err == nil && rep.Errors() > 0 {
				j.err = fmt.Errorf("failing due to %s", rep.Summary())
			}
		}(i, file)
	}
	wg.Wait()

	var firstErr error
	failed := 0
	for i := range jobs {
		j := &jobs[i]
		fmt.Fprintf(stdout, "==> %s\n", c.srcFiles[i])
		_, _ = io.Copy(stdout, &j.out)
		_, _ = io.Copy(stderr, &j.diags)
		if j.err != nil {
			fmt.Fprintf(stderr, "record: %s: %v\n", c.srcFiles[i], j.err)
			failed++
			if firstErr == nil {
				firstErr = j.err
			}
		}
	}
	if firstErr != nil {
		// Wrap rather than replace so the worst failure still drives the
		// exit code (internal faults unwrap to diag.PanicError).
		return fmt.Errorf("%d of %d source files failed: %w", failed, len(jobs), firstErr)
	}
	return nil
}

// compileOne compiles a single RecC source against the target, writing
// listings and statistics to stdout.
func compileOne(c *config, comp *core.Compiler, src string, rep *diag.Reporter, budget *diag.Budget, stdout io.Writer) error {
	target := comp.Target()
	prog, err := cfront.Parse(src)
	if err != nil {
		rep.Errorf("recc", diag.Pos{}, "%v", err)
		return err
	}
	if c.useNaive && ir.HasControlFlow(prog) {
		return usagef("the naive baseline does not support control flow")
	}
	ctx := context.Background()
	if budget != nil && budget.Ctx != nil {
		ctx = budget.Ctx
	}

	var res *core.CompileResult
	err = diag.Guard(rep, "compile", func() error {
		var err error
		if c.useNaive {
			res, err = naive.Compile(comp, prog)
		} else {
			res, err = comp.CompileProgramOpts(ctx, prog, c.core.Compile())
		}
		return err
	})
	if err != nil {
		return err
	}

	if c.showSeq {
		fmt.Fprintln(stdout, "sequential RT code:")
		fmt.Fprint(stdout, res.Seq)
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "code for %s: %d RT instructions in %d words\n\n",
		target.Name, res.SeqLen(), res.CodeLen())
	fmt.Fprint(stdout, target.Listing(res))

	if c.showStats {
		fmt.Fprintf(stdout, "\nselection: %d trees, cost %d, %d spills; peephole removed %d loads, %d stores\n",
			res.Stats.Trees, res.Stats.SelectCost, res.Stats.Spills,
			res.Opt.LoadsRemoved, res.Opt.StoresRemoved)
	}

	if c.execute {
		var env ir.Env
		err := diag.Guard(rep, "sim", func() error {
			var err error
			env, err = target.CheckAgainstOracleContext(ctx, res)
			if err != nil && env != nil {
				return fmt.Errorf("simulation disagrees with the IR oracle: %w", err)
			}
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nfinal variable values (simulated, oracle-checked):")
		printEnv(stdout, env)
	}
	return nil
}

// writeTrace exports the run's spans as Chrome trace_event JSON.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.WriteChromeTrace(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func printEnv(stdout io.Writer, env ir.Env) {
	names := make([]string, 0, len(env))
	for n := range env {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-12s %v\n", n, env[n])
	}
}

func loadModel(name, file, vhdlFile string) (string, error) {
	count := 0
	for _, s := range []string{name, file, vhdlFile} {
		if s != "" {
			count++
		}
	}
	if count > 1 {
		return "", usagef("use exactly one of -model, -mdl, -vhdl")
	}
	switch {
	case name != "":
		mdl, ok := models.Get(name)
		if !ok {
			return "", usagef("unknown model %q (try -list)", name)
		}
		return mdl, nil
	case file != "":
		b, err := os.ReadFile(file)
		if err != nil {
			return "", err
		}
		return string(b), nil
	case vhdlFile != "":
		b, err := os.ReadFile(vhdlFile)
		if err != nil {
			return "", err
		}
		return vhdl.Translate(string(b))
	}
	return "", usagef("no processor model: use -model, -mdl or -vhdl")
}

func loadSource(file, kernel string) (string, error) {
	switch {
	case file != "" && kernel != "":
		return "", usagef("use either -src or -kernel, not both")
	case kernel != "":
		k, ok := dspstone.Get(kernel)
		if !ok {
			return "", usagef("unknown kernel %q (try -list)", kernel)
		}
		return k.Source, nil
	case file == "-":
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	case file != "":
		b, err := os.ReadFile(file)
		return string(b), err
	}
	return "", usagef("no source program: use -src or -kernel")
}

func printRetargetStats(stdout io.Writer, t *core.Target) {
	s := t.Stats
	fmt.Fprintf(stdout, "retargeted %s in %v\n", t.Name, s.Total)
	fmt.Fprintf(stdout, "  HDL frontend + elaboration  %v\n", s.Frontend)
	fmt.Fprintf(stdout, "  instruction-set extraction  %v (%d routes, %d unsat pruned, %d destinations dropped)\n",
		s.ISE, s.ISEDetails.RoutesEnumerated, s.ISEDetails.Unsatisfiable, s.ISEDetails.Dropped)
	fmt.Fprintf(stdout, "  templates discarded         encoding-conflict=%d bus-contention=%d budget=%d\n",
		s.ISEDetails.UnsatEncoding, s.ISEDetails.UnsatBus, s.ISEDetails.DiscardedBudget)
	fmt.Fprintf(stdout, "  template-base extension     %v (%d -> %d templates)\n",
		s.Extension, s.Extracted, s.Templates)
	fmt.Fprintf(stdout, "  grammar construction        %v (%d rules, %d nonterminals)\n",
		s.Grammar, s.GrammarSz.RTRules+s.GrammarSz.StartRules+s.GrammarSz.StopRules,
		s.GrammarSz.Nonterminals)
	fmt.Fprintf(stdout, "  parser generation           %v\n", s.ParserGen)
	fmt.Fprintf(stdout, "  freeze (bake encode tables) %v\n\n", s.Freeze)
}
