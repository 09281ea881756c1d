// Dspkernel: compile a DSPStone FIR filter for the TMS320C25-style DSP
// model, show how tree parsing selects chained multiply-accumulate RTs and
// how compaction software-pipelines them into the dual-memory MAC, then
// run the filter on the simulated netlist.
//
//	go run ./examples/dspkernel
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/models"
	"repro/internal/naive"
)

func main() {
	mdl, _ := models.Get("tms320c25")
	target, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retargeted to %s: %d templates, %v\n\n",
		target.Name, target.Stats.Templates, target.Stats.Total)

	kernel, _ := dspstone.Get("fir")
	fmt.Printf("kernel %s (N=%d), hand-written reference: %d words\n\n",
		kernel.Name, kernel.N, kernel.HandWords)

	comp, err := core.NewCompiler(target, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := comp.CompileSource(context.Background(), kernel.Source)
	if err != nil {
		log.Fatal(err)
	}
	if err := target.CheckAgainstOracle(res); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("selected RT code (%d instructions after peephole; %d loads and %d stores eliminated):\n",
		res.SeqLen(), res.Opt.LoadsRemoved, res.Opt.StoresRemoved)
	fmt.Print(res.Seq)

	fmt.Printf("\ncompacted to %d words (%.0f%% of hand-written):\n",
		res.CodeLen(), 100*float64(res.CodeLen())/float64(kernel.HandWords))
	fmt.Print(target.Listing(res))

	// Show the MAC software pipeline: words executing ALU, multiplier and
	// T-load in parallel.
	parallel := 0
	for _, w := range res.Code.Words {
		if len(w.Instrs) >= 2 {
			parallel++
		}
	}
	fmt.Printf("\n%d of %d words execute more than one RT in parallel\n",
		parallel, res.CodeLen())

	// Compare with the naive macro-expansion baseline.
	nv, err := naive.CompileSource(comp, kernel.Source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive baseline needs %d words (%.0f%% of hand-written)\n\n",
		nv.CodeLen(), 100*float64(nv.CodeLen())/float64(kernel.HandWords))

	env, err := target.Execute(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated filter output: y = %d, shifted delay line x = %v\n",
		env["y"][0], env["x"])
}
