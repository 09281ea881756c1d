// Controlflow: the "standard jump instructions" of the paper's processor
// class, end to end.  The brancher model adds a comparator, a 1-bit flag
// register and a next-PC multiplexer to the accumulator machine;
// instruction-set extraction turns the multiplexer into jump RT templates
// (the conditional ones carrying dynamic flag guards), and core.Compiler
// compiles genuine runtime loops against them — no unrolling.
//
//	go run ./examples/controlflow
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/models"
)

const program = `
int n = 27;
int steps;
int peak;

void main() {
  steps = 0;
  peak = n;
  while (n != 1) {
    if ((n & 1) == 1) { n = 3*n + 1; }
    else { n = n >> 1; }
    if (n > peak) { peak = n; }
    steps = steps + 1;
  }
}
`

func main() {
	target, err := core.RetargetContext(context.Background(), models.BrancherMDL, core.RetargetOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retargeted to %s: %d templates\n", target.Name, target.Stats.Templates)

	// Show the extracted jump templates.
	fmt.Println("\nPC-destination RT templates found by instruction-set extraction:")
	for _, tpl := range target.Base.Templates {
		if tpl.Dest == "pc.r" {
			fmt.Printf("  %s\n", tpl)
		}
	}

	comp, err := core.NewCompiler(target, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := comp.CompileSource(context.Background(), program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompiled Collatz(27) with real branches: %d words, %d basic blocks\n",
		res.Code.Len(), len(res.CFG.Blocks))
	fmt.Print(target.Listing(res))

	if err := target.CheckAgainstOracle(res); err != nil {
		log.Fatal(err)
	}
	env, err := target.Execute(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated on the netlist (oracle-checked): steps = %d, peak = %d\n",
		env["steps"][0], env["peak"][0])
	fmt.Println("(the trip count is data-dependent — this cannot be unrolled at compile time)")
}
