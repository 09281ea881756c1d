// Command rtsim compiles a RecC program for a processor model, executes it
// on the cycle-accurate netlist simulator, cross-checks the result against
// the IR interpreter oracle, and dumps the final variable values.
//
// Usage:
//
//	rtsim -model tms320c25 -src program.c
//	rtsim -model tms320c25 -kernel fir -trace
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/models"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rtsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		modelName  = flag.String("model", "", "bundled processor model name")
		mdlFile    = flag.String("mdl", "", "MDL processor model file")
		srcFile    = flag.String("src", "", "RecC source file")
		kernelName = flag.String("kernel", "", "bundled DSPStone kernel")
		trace      = flag.Bool("trace", false, "print the PC and register state per cycle")
	)
	flag.Parse()

	var mdl string
	switch {
	case *modelName != "":
		var ok bool
		mdl, ok = models.Get(*modelName)
		if !ok {
			return fmt.Errorf("unknown model %q", *modelName)
		}
	case *mdlFile != "":
		b, err := os.ReadFile(*mdlFile)
		if err != nil {
			return err
		}
		mdl = string(b)
	default:
		return fmt.Errorf("no processor model: use -model or -mdl")
	}

	var src string
	switch {
	case *kernelName != "":
		k, ok := dspstone.Get(*kernelName)
		if !ok {
			return fmt.Errorf("unknown kernel %q", *kernelName)
		}
		src = k.Source
	case *srcFile != "":
		b, err := os.ReadFile(*srcFile)
		if err != nil {
			return err
		}
		src = string(b)
	default:
		return fmt.Errorf("no source: use -src or -kernel")
	}

	target, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		return err
	}
	comp, err := core.NewCompiler(target, core.Config{})
	if err != nil {
		return err
	}
	res, err := comp.CompileSource(context.Background(), src)
	if err != nil {
		return err
	}
	fmt.Printf("compiled for %s: %d RTs, %d words\n", target.Name, res.SeqLen(), res.CodeLen())

	if *trace {
		if err := traceRun(target, res); err != nil {
			return err
		}
	}

	if err := target.CheckAgainstOracle(res); err != nil {
		return fmt.Errorf("simulation disagrees with the IR oracle: %w", err)
	}
	env, err := target.Execute(res)
	if err != nil {
		return err
	}
	fmt.Println("final variable values (oracle-checked):")
	names := make([]string, 0, len(env))
	for n := range env {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-12s %v\n", n, env[n])
	}
	return nil
}

func traceRun(target *core.Target, res *core.CompileResult) error {
	s, err := target.Simulator(res.ModeReq, res.Binding, res.Program.Decls)
	if err != nil {
		return err
	}
	words := res.Words()
	if err := s.LoadProgram(words); err != nil {
		return err
	}
	// Registers to display: every single-cell data storage.
	var regs []string
	for _, st := range target.Net.DataStorages() {
		if st.Size() == 1 {
			regs = append(regs, st.QName())
		}
	}
	sort.Strings(regs)
	for cycle := 0; cycle < len(words); cycle++ {
		fmt.Printf("cycle %3d  pc=%-4d", cycle, s.PC())
		for _, r := range regs {
			fmt.Printf("  %s=%d", r, s.Mem[r][0])
		}
		fmt.Println()
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}
