// Command isex runs instruction-set extraction on an HDL processor model
// and dumps the RT template base, the constructed tree grammar, or the
// generated parser source.
//
// Usage:
//
//	isex -model tms320c25 -templates
//	isex -mdl processor.mdl -grammar
//	isex -model demo -parser > demo_parser.go
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/burs"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/rtl"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "isex:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		modelName   = flag.String("model", "", "bundled processor model name")
		mdlFile     = flag.String("mdl", "", "MDL processor model file")
		templates   = flag.Bool("templates", false, "dump the RT template base")
		grammarDump = flag.Bool("grammar", false, "dump the tree grammar")
		parserSrc   = flag.Bool("parser", false, "emit the generated parser as Go source")
		conditions  = flag.Bool("conditions", false, "include execution conditions with templates")
		noExtension = flag.Bool("no-extension", false, "skip template-base extension")
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

	target, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{NoExtension: *noExtension})
	if err != nil {
		return err
	}

	s := target.Stats
	fmt.Printf("processor %s: %d extracted RT templates, %d after extension\n",
		target.Name, s.Extracted, s.Templates)
	fmt.Printf("retargeting time %v (frontend %v, ISE %v, extension %v, grammar %v, parser %v)\n",
		s.Total, s.Frontend, s.ISE, s.Extension, s.Grammar, s.ParserGen)
	fmt.Printf("grammar: %d nonterminals, %d terminals, %d start + %d RT + %d stop rules (%d chain)\n",
		s.GrammarSz.Nonterminals, s.GrammarSz.Terminals, s.GrammarSz.StartRules,
		s.GrammarSz.RTRules, s.GrammarSz.StopRules, s.GrammarSz.ChainRules)

	if *templates {
		fmt.Println("\nRT template base:")
		target.Base.Each(func(s rtl.Swap) {
			fmt.Printf("%4d: %s", s.ID, s)
			if s.Of.Synthetic || s.Mask != 0 {
				fmt.Print("  [synthetic]")
			}
			if *conditions {
				fmt.Printf("\n      cond: %s", target.ISE.Vars.M.String(s.Of.Cond.Static))
			}
			fmt.Println()
		})
	}
	if *grammarDump {
		fmt.Println("\ntree grammar:")
		fmt.Print(target.Grammar.String())
	}
	if *parserSrc {
		fmt.Println(burs.EmitGo(target.Grammar, "generatedparser"))
	}
	return nil
}
