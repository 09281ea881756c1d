// Benchmark harness regenerating the paper's evaluation:
//
//   - BenchmarkTable3_* measure retargeting time (instruction-set
//     extraction + template extension + grammar construction + parser
//     generation) for each of the six processor models of table 3.
//   - BenchmarkFigure2_* measure compilation of each DSPStone kernel on
//     the TMS320C25 model; the reported code sizes are printed by
//     cmd/benchtab and recorded in EXPERIMENTS.md.
//   - BenchmarkAblation* quantify the design choices called out in
//     DESIGN.md: commutative template extension, code compaction, the
//     peephole pass, and the BDD variable order inside extraction.
//   - BenchmarkCodeSelection measures raw tree-parsing throughput (the
//     paper: "several hundred RT templates per CPU second").
package repro

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/burs"
	"repro/internal/core"
	"repro/internal/dspstone"
	"repro/internal/ise"
	"repro/internal/models"
	"repro/internal/naive"
	"repro/internal/obs"
	"repro/internal/rcache"
)

// ---- Table 3: retargeting time per processor model ---------------------

// benchRetarget times a retarget the way the paper counts it: the full
// pipeline plus burs.EmitGo, the iburg-style parser source emission.  That
// is faithful to table 3, but recordd never emits Go source, so these
// numbers overstate what a service-side retarget costs; those come from
// BenchmarkRetargetCached/*/Cold.
func benchRetarget(b *testing.B, model string) {
	mdl, ok := models.Get(model)
	if !ok {
		b.Fatalf("model %s missing", model)
	}
	b.ReportAllocs()
	var templates int
	for i := 0; i < b.N; i++ {
		tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
		if err != nil {
			b.Fatal(err)
		}
		burs.EmitGo(tg.Grammar, model+"parser")
		templates = tg.Stats.Templates
	}
	b.ReportMetric(float64(templates), "templates")
}

func BenchmarkTable3_Demo(b *testing.B)      { benchRetarget(b, "demo") }
func BenchmarkTable3_Ref(b *testing.B)       { benchRetarget(b, "ref") }
func BenchmarkTable3_ManoCPU(b *testing.B)   { benchRetarget(b, "manocpu") }
func BenchmarkTable3_Tanenbaum(b *testing.B) { benchRetarget(b, "tanenbaum") }
func BenchmarkTable3_BassBoost(b *testing.B) { benchRetarget(b, "bass_boost") }
func BenchmarkTable3_TMS320C25(b *testing.B) { benchRetarget(b, "tms320c25") }

// BenchmarkRetargetCached times the three ways a retarget can be served,
// per bundled model: Cold runs the full pipeline as recordd does, WarmDisk
// reads and verifies the persisted artifact and retargets its stored
// source (a fresh cache instance each iteration, so the memory tier never
// helps), and WarmMem hits the in-memory LRU.  WarmDisk - Cold is the
// price of the file read and the checks; nothing here asserts it.  Cold
// skips burs.EmitGo, which BenchmarkTable3_* include, so */Cold is the
// number to quote for a service-side retarget.
func BenchmarkRetargetCached(b *testing.B) {
	for _, model := range []string{"demo", "ref", "manocpu", "tanenbaum", "bass_boost", "tms320c25", "brancher"} {
		b.Run(model, func(b *testing.B) { benchRetargetCached(b, model) })
	}
}

func benchRetargetCached(b *testing.B, model string) {
	mdl, ok := models.Get(model)
	if !ok {
		b.Fatalf("model %s missing", model)
	}
	dir := b.TempDir()
	warm, err := rcache.New(rcache.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := warm.GetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil {
		b.Fatal(err)
	}

	b.Run("Cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WarmDisk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := rcache.New(rcache.Options{Dir: dir})
			if err != nil {
				b.Fatal(err)
			}
			_, out, err := c.GetContext(context.Background(), mdl, core.RetargetOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if out != rcache.Disk {
				b.Fatalf("outcome %s, want disk hit", out)
			}
		}
	})
	b.Run("WarmMem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, out, err := warm.GetContext(context.Background(), mdl, core.RetargetOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if !out.Hit() {
				b.Fatalf("outcome %s, want hit", out)
			}
		}
	})
}

// ---- Figure 2: DSPStone kernel compilation on the TMS320C25 ------------

var (
	c25Once sync.Once
	c25Tg   *core.Target
	c25Err  error
)

func c25(b *testing.B) *core.Target {
	c25Once.Do(func() {
		mdl, _ := models.Get("tms320c25")
		c25Tg, c25Err = core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	})
	if c25Err != nil {
		b.Fatal(c25Err)
	}
	return c25Tg
}

func benchKernel(b *testing.B, name string) {
	tg := c25(b)
	k, ok := dspstone.Get(name)
	if !ok {
		b.Fatalf("kernel %s missing", name)
	}
	b.ReportAllocs()
	var words int
	for i := 0; i < b.N; i++ {
		res, err := tg.CompileSourceContext(context.Background(), k.Source, core.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		words = res.CodeLen()
	}
	b.ReportMetric(float64(words), "words")
	b.ReportMetric(100*float64(words)/float64(k.HandWords), "%ofhand")
}

func BenchmarkFigure2_RealUpdate(b *testing.B)      { benchKernel(b, "real_update") }
func BenchmarkFigure2_ComplexMultiply(b *testing.B) { benchKernel(b, "complex_multiply") }
func BenchmarkFigure2_ComplexUpdate(b *testing.B)   { benchKernel(b, "complex_update") }
func BenchmarkFigure2_NRealUpdates(b *testing.B)    { benchKernel(b, "n_real_updates") }
func BenchmarkFigure2_NComplexUpdates(b *testing.B) { benchKernel(b, "n_complex_updates") }
func BenchmarkFigure2_DotProduct(b *testing.B)      { benchKernel(b, "dot_product") }
func BenchmarkFigure2_Fir(b *testing.B)             { benchKernel(b, "fir") }
func BenchmarkFigure2_BiquadOne(b *testing.B)       { benchKernel(b, "biquad_one") }
func BenchmarkFigure2_BiquadN(b *testing.B)         { benchKernel(b, "biquad_N") }
func BenchmarkFigure2_Convolution(b *testing.B)     { benchKernel(b, "convolution") }

// ---- Parallel compilation throughput on the frozen target --------------

// benchParallelCompile measures DSPStone kernel compilation throughput at
// a fixed worker count through one shared core.Compiler over the frozen
// TMS320C25 target: the contention-free scaling claim of the frozen-target
// design plus the pooled-session hot path.  ns/op is per compiled kernel,
// so near-linear scaling shows as ns/op dropping with the worker count.
func benchParallelCompile(b *testing.B, workers int) {
	tg := c25(b)
	comp, err := core.NewCompiler(tg, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	kernels := []string{"real_update", "dot_product", "fir", "biquad_one"}
	srcs := make([]string, len(kernels))
	for i, name := range kernels {
		k, ok := dspstone.Get(name)
		if !ok {
			b.Fatalf("kernel %s missing", name)
		}
		srcs[i] = k.Source
	}
	b.ReportAllocs()
	b.SetParallelism(1) // worker count == GOMAXPROCS slice below
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			src := srcs[i%len(srcs)]
			i++
			if _, err := comp.CompileSource(context.Background(), src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchCompileObs measures one kernel compile through a shared Compiler
// with and without a live obs scope, so CI can gate the tracing tax: the
// traced variant records every compile stage's span into one long-lived
// bounded tracer, so it measures the per-span tax on the compile path.
// benchtraj records the pair as compile_ns_per_op{base,traced} and
// -max-traced-overhead fails the build if traced/base drifts.
func benchCompileObs(b *testing.B, traced bool) {
	tg := c25(b)
	var cfg core.Config
	if traced {
		tracer := obs.NewTracer(obs.WithMaxSpans(4096))
		_, cfg.Obs = obs.NewScope(obs.NewRegistry(), tracer).Start("bench.compile")
	}
	comp, err := core.NewCompiler(tg, cfg)
	if err != nil {
		b.Fatal(err)
	}
	k, ok := dspstone.Get("dot_product")
	if !ok {
		b.Fatal("kernel dot_product missing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.CompileSource(context.Background(), k.Source); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileBaseline(b *testing.B) { benchCompileObs(b, false) }
func BenchmarkCompileTraced(b *testing.B)   { benchCompileObs(b, true) }

// BenchmarkCompileTracedOverhead measures the tracing tax as a ratio the
// CI gate can trust on a noisy runner.  Three defences against bias:
// plain and traced compiles alternate in small batches, so slow drift
// lands on both sides of each pair equally; whichever half runs second
// inherits warm caches from the first, so the pair order itself flips
// every iteration; and each order's per-pair ratios are reduced by
// MEDIAN — a CPU-steal burst inside one batch corrupts only that pair's
// ratio, which the median discards where a total-time quotient would
// absorb it.  The reported "overhead" metric is the geometric mean of
// the two order-specific medians, cancelling the warm-second advantage.
// ns/op covers one plain+traced compile pair.
func BenchmarkCompileTracedOverhead(b *testing.B) {
	tg := c25(b)
	plain, err := core.NewCompiler(tg, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	tracer := obs.NewTracer(obs.WithMaxSpans(4096))
	var cfg core.Config
	_, cfg.Obs = obs.NewScope(obs.NewRegistry(), tracer).Start("bench.compile")
	traced, err := core.NewCompiler(tg, cfg)
	if err != nil {
		b.Fatal(err)
	}
	k, ok := dspstone.Get("dot_product")
	if !ok {
		b.Fatal("kernel dot_product missing")
	}
	ctx := context.Background()
	run := func(c *core.Compiler, n int) time.Duration {
		from := time.Now()
		for j := 0; j < n; j++ {
			if _, err := c.CompileSource(ctx, k.Source); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(from)
	}
	const batch = 4
	var ratios [2][]float64 // [0]: plain ran first; [1]: traced ran first
	pair := 0
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		n := batch
		if left := b.N - done; left < n {
			n = left
		}
		var tPlain, tTraced time.Duration
		order := pair % 2
		if order == 0 {
			tPlain = run(plain, n)
			tTraced = run(traced, n)
		} else {
			tTraced = run(traced, n)
			tPlain = run(plain, n)
		}
		if tPlain > 0 {
			ratios[order] = append(ratios[order], float64(tTraced)/float64(tPlain))
		}
		pair++
	}
	b.StopTimer()
	median := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		sort.Float64s(v)
		return v[len(v)/2]
	}
	m0, m1 := median(ratios[0]), median(ratios[1])
	switch {
	case m0 > 0 && m1 > 0:
		b.ReportMetric(math.Sqrt(m0*m1), "overhead")
	case m0+m1 > 0:
		b.ReportMetric(m0+m1, "overhead")
	}
}

func BenchmarkParallelCompile1(b *testing.B)  { benchParallelCompile(b, 1) }
func BenchmarkParallelCompile2(b *testing.B)  { benchParallelCompile(b, 2) }
func BenchmarkParallelCompile4(b *testing.B)  { benchParallelCompile(b, 4) }
func BenchmarkParallelCompile8(b *testing.B)  { benchParallelCompile(b, 8) }
func BenchmarkParallelCompile16(b *testing.B) { benchParallelCompile(b, 16) }
func BenchmarkParallelCompile32(b *testing.B) { benchParallelCompile(b, 32) }

// BenchmarkFigure2_NaiveBaseline measures the baseline compiler on the
// dot-product kernel (its worst case, 527% of hand-written).
func BenchmarkFigure2_NaiveBaseline(b *testing.B) {
	tg := c25(b)
	k, _ := dspstone.Get("dot_product")
	b.ReportAllocs()
	var words int
	for i := 0; i < b.N; i++ {
		res, err := naive.CompileSource(tg, k.Source)
		if err != nil {
			b.Fatal(err)
		}
		words = res.CodeLen()
	}
	b.ReportMetric(float64(words), "words")
}

// ---- Ablations ----------------------------------------------------------

// BenchmarkAblationCommutativity compares code size for a sum-of-products
// block with and without the commutative template extension (paper
// section 3: badly structured expression trees).
func BenchmarkAblationCommutativity(b *testing.B) {
	mdl, _ := models.Get("tms320c25")
	src := `
int a = 2; int b = 3; int c = 4; int d = 5;
int y;
y = b*a + d*c;
`
	for _, ext := range []bool{true, false} {
		ext := ext
		name := "extended"
		if !ext {
			name = "plain"
		}
		b.Run(name, func(b *testing.B) {
			tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{NoExtension: !ext})
			if err != nil {
				b.Fatal(err)
			}
			var words int
			for i := 0; i < b.N; i++ {
				res, err := tg.CompileSourceContext(context.Background(), src, core.CompileOptions{})
				if err != nil {
					b.Fatal(err)
				}
				words = res.CodeLen()
			}
			b.ReportMetric(float64(words), "words")
		})
	}
}

// BenchmarkAblationCompaction measures the contribution of code compaction
// on the MAC-pipeline kernel.
func BenchmarkAblationCompaction(b *testing.B) {
	tg := c25(b)
	k, _ := dspstone.Get("dot_product")
	for _, on := range []bool{true, false} {
		on := on
		name := "compacted"
		if !on {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			var words int
			for i := 0; i < b.N; i++ {
				res, err := tg.CompileSourceContext(context.Background(), k.Source,
					core.CompileOptions{NoCompaction: !on})
				if err != nil {
					b.Fatal(err)
				}
				words = res.CodeLen()
			}
			b.ReportMetric(float64(words), "words")
		})
	}
}

// BenchmarkAblationPeephole measures the redundant-load/dead-store pass.
func BenchmarkAblationPeephole(b *testing.B) {
	tg := c25(b)
	k, _ := dspstone.Get("dot_product")
	for _, on := range []bool{true, false} {
		on := on
		name := "peephole"
		if !on {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			var words int
			for i := 0; i < b.N; i++ {
				res, err := tg.CompileSourceContext(context.Background(), k.Source,
					core.CompileOptions{NoPeephole: !on})
				if err != nil {
					b.Fatal(err)
				}
				words = res.CodeLen()
			}
			b.ReportMetric(float64(words), "words")
		})
	}
}

// BenchmarkAblationBDDOrder measures instruction-set extraction under the
// two instruction-bit variable orders.
func BenchmarkAblationBDDOrder(b *testing.B) {
	mdl, _ := models.Get("demo")
	for _, msb := range []bool{false, true} {
		msb := msb
		name := "lsb-first"
		if msb {
			name = "msb-first"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{
					ISE: iseOptions(msb),
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = tg
			}
		})
	}
}

// ---- Raw selection throughput ------------------------------------------

// BenchmarkCodeSelection measures tree covering throughput on the largest
// kernel (templates emitted per second; the paper reports several hundred
// per CPU second on a SPARC-20).
func BenchmarkCodeSelection(b *testing.B) {
	tg := c25(b)
	k, _ := dspstone.Get("n_complex_updates")
	b.ResetTimer()
	var rts int
	for i := 0; i < b.N; i++ {
		res, err := tg.CompileSourceContext(context.Background(), k.Source, core.CompileOptions{NoCompaction: true})
		if err != nil {
			b.Fatal(err)
		}
		rts = res.SeqLen()
	}
	b.ReportMetric(float64(rts), "RTs")
}

// BenchmarkSimulation measures netlist-level execution speed.
func BenchmarkSimulation(b *testing.B) {
	tg := c25(b)
	k, _ := dspstone.Get("fir")
	res, err := tg.CompileSourceContext(context.Background(), k.Source, core.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tg.Execute(res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.CodeLen()), "cycles")
}

func iseOptions(msb bool) ise.Options {
	return ise.Options{MSBFirstVars: msb}
}
