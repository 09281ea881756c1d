// Command benchtab regenerates the paper's evaluation artifacts as text
// tables: table 3 (RT template counts and retargeting times per processor
// model) and figure 2 (relative code size for the DSPStone kernels on the
// TMS320C25 model, hand-written = 100%).
//
// Usage:
//
//	benchtab -table3
//	benchtab -fig2
//	benchtab          (both)
//	benchtab -validate-metrics metrics.txt   (check a /metrics scrape, - for stdin)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/burs"
	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/models"
	"repro/internal/naive"
)

func main() {
	var (
		table3  = flag.Bool("table3", false, "print table 3 (retargeting)")
		fig2    = flag.Bool("fig2", false, "print figure 2 (code size)")
		metrics = flag.String("validate-metrics", "", "validate a Prometheus text exposition from this file (- for stdin) and exit")
	)
	flag.Parse()
	if *metrics != "" {
		if err := runValidateMetrics(*metrics); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
		return
	}
	if !*table3 && !*fig2 {
		*table3, *fig2 = true, true
	}
	if *table3 {
		if err := printTable3(); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
	}
	if *fig2 {
		if err := printFig2(); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
	}
}

func runValidateMetrics(path string) error {
	in := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	families, samples, err := validateMetrics(in)
	if err != nil {
		return fmt.Errorf("invalid metrics exposition: %w", err)
	}
	fmt.Printf("metrics OK: %d families, %d samples\n", families, samples)
	return nil
}

func printTable3() error {
	fmt.Println("Table 3: RT templates and retargeting time per processor model")
	fmt.Println("(paper reports SPARC-20 CPU seconds; we report wall time on this host)")
	fmt.Println()
	fmt.Printf("%-12s %10s %10s %14s %12s %12s %12s\n",
		"processor", "extracted", "templates", "retarget time", "ISE", "grammar", "parser gen")
	fmt.Println(strings.Repeat("-", 88))
	for _, e := range models.All() {
		tg, err := core.RetargetContext(context.Background(), e.MDL, core.RetargetOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		s := tg.Stats
		// Parser generation includes rendering the parser as Go source,
		// mirroring iburg's C emission.
		start := time.Now()
		burs.EmitGo(tg.Grammar, e.Name+"parser")
		emit := time.Since(start)
		s.ParserGen += emit
		s.Total += emit
		fmt.Printf("%-12s %10d %10d %14v %12v %12v %12v\n",
			e.Name, s.Extracted, s.Templates, s.Total, s.ISE, s.Grammar, s.ParserGen)
	}
	fmt.Println()
	return nil
}

func printFig2() error {
	fmt.Println("Figure 2: relative code size on TMS320C25 (hand-written = 100%)")
	fmt.Println("(the naive macro-expansion baseline plays the vendor C compiler's role)")
	fmt.Println()
	mdl, _ := models.Get("tms320c25")
	tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		return err
	}
	comp, err := core.NewCompiler(tg, core.Config{})
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %6s %8s %8s %9s %9s\n",
		"kernel", "hand", "record", "naive", "record%", "naive%")
	fmt.Println(strings.Repeat("-", 66))
	for _, k := range dspstone.Suite() {
		rec, err := comp.CompileSource(context.Background(), k.Source)
		if err != nil {
			return fmt.Errorf("%s (record): %w", k.Name, err)
		}
		if err := tg.CheckAgainstOracle(rec); err != nil {
			return fmt.Errorf("%s (record oracle): %w", k.Name, err)
		}
		nv, err := naive.CompileSource(comp, k.Source)
		if err != nil {
			return fmt.Errorf("%s (naive): %w", k.Name, err)
		}
		if err := tg.CheckAgainstOracle(nv); err != nil {
			return fmt.Errorf("%s (naive oracle): %w", k.Name, err)
		}
		fmt.Printf("%-20s %6d %8d %8d %8d%% %8d%%\n",
			k.Name, k.HandWords, rec.CodeLen(), nv.CodeLen(),
			100*rec.CodeLen()/k.HandWords, 100*nv.CodeLen()/k.HandWords)
	}
	fmt.Println()
	return nil
}
