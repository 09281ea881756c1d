// Codesign: the paper's motivating use case — because retargeting takes
// seconds rather than compiler-engineering months, you can explore the
// HW/SW trade-off between processor architectures and program execution
// speed.  This example compiles the same DSP kernel for every bundled
// processor model and compares code size (≈ cycle count for these
// single-cycle machines) and retargeting effort.
//
//	go run ./examples/codesign
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/models"
)

// The workload: a small sum-of-products filter — the bread and butter of
// the DSP-domain ASIPs the paper targets.
const kernel = `
int x[4] = {10, 20, 30, 40};
int h[4] = {1, 2, 3, 4};
int y;

void main() {
  y = 0;
  for (i = 0; i < 4; i++) {
    y = y + h[i] * x[i];
  }
}
`

func main() {
	fmt.Println("HW/SW codesign exploration: one kernel, six architectures")
	fmt.Println()
	fmt.Printf("%-12s %10s %12s %8s %8s %10s\n",
		"processor", "templates", "retarget", "RTs", "words", "vs best")
	fmt.Println(strings.Repeat("-", 66))

	type row struct {
		name  string
		words int
	}
	var rows []row
	best := 1 << 30
	for _, e := range models.All() {
		target, err := core.RetargetContext(context.Background(), e.MDL, core.RetargetOptions{})
		if err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		comp, err := core.NewCompiler(target, core.Config{})
		if err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		res, err := comp.CompileSource(context.Background(), kernel)
		if err != nil {
			// An architecture that cannot run the kernel is itself a
			// codesign data point.
			fmt.Printf("%-12s %10d %12v %8s %8s %10s\n",
				e.Name, target.Stats.Templates, target.Stats.Total, "-", "-",
				"cannot run kernel")
			continue
		}
		if err := target.CheckAgainstOracle(res); err != nil {
			log.Fatalf("%s: wrong code: %v", e.Name, err)
		}
		fmt.Printf("%-12s %10d %12v %8d %8d",
			e.Name, target.Stats.Templates, target.Stats.Total,
			res.SeqLen(), res.CodeLen())
		fmt.Println()
		rows = append(rows, row{e.Name, res.CodeLen()})
		if res.CodeLen() < best {
			best = res.CodeLen()
		}
	}

	fmt.Println()
	fmt.Println("relative execution time (best = 1.00):")
	for _, r := range rows {
		fmt.Printf("  %-12s %5.2fx", r.name, float64(r.words)/float64(best))
		fmt.Printf("  %s\n", strings.Repeat("#", r.words/2+1))
	}
	fmt.Println()
	fmt.Println("Reading the chart: the dual-memory DSP (tms320c25) and the wide")
	fmt.Println("synthetic machines pipeline the multiply-accumulate into few words,")
	fmt.Println("while the bus-based educational machines serialize every transfer —")
	fmt.Println("exactly the architecture/speed trade-off the paper's short")
	fmt.Println("retargeting times let a designer measure instead of guess.")
}
