package grammar_test

import (
	"testing"

	"repro/internal/grammar"
	"repro/internal/hdl"
	"repro/internal/ise"
	"repro/internal/models"
	"repro/internal/netlist"
	"repro/internal/rewrite"
	"repro/internal/rtl"
)

// BenchmarkGrammarBuild times grammar construction alone, per bundled
// model, on a freshly extracted and extended template base, as a cold
// retarget runs it.  Building the base is outside the timer; each
// iteration gets its own, because Build interns swap patterns into the
// base's store.  Run with -benchmem for the phase's bytes and
// allocations beside BenchmarkRetargetCached/*/Cold.
func BenchmarkGrammarBuild(b *testing.B) {
	names := []string{"brancher"}
	for _, e := range models.All() {
		names = append(names, e.Name)
	}
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			mdl, _ := models.Get(name)
			m, err := hdl.ParseAndCheck(mdl)
			if err != nil {
				b.Fatal(err)
			}
			net, err := netlist.Elaborate(m)
			if err != nil {
				b.Fatal(err)
			}
			spec := grammar.SpecFromNetlist(net)
			extended := func() *rtl.Base {
				res, err := ise.Extract(net, ise.Options{})
				if err != nil {
					b.Fatal(err)
				}
				rewrite.Extend(res.Base, rewrite.DefaultOptions())
				return res.Base
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				base := extended()
				b.StartTimer()
				if _, err := grammar.Build(base, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
