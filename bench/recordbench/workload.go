package main

import (
	"fmt"
	"math/rand"

	"repro/internal/dspstone"
	"repro/internal/models"
)

// workload is one traffic mix the benchmark sends to a fresh recordd.
type workload struct {
	name      string
	why       string
	retarget  bool // /v1/retarget traffic; /v1/compile by key otherwise
	cold      bool // every retarget is a never-seen model revision
	cacheSize int  // recordd -cache-size; 0 keeps the daemon default
}

func (w workload) churn() bool { return w.retarget && !w.cold }

// workloads are the benchmark's traffic mixes.  Each exists to move a
// different layer: compile the compile core (large programs, most of the
// time) and the per-request service path (small programs, the median),
// retarget-cold the full retarget plus artifact encode and store write,
// retarget-churn the artifact decode and restore path that retarget-cold
// never reads.
var workloads = []workload{
	{name: "compile", why: "by-key compiles of small and large DSPStone kernels on tms320c25: large ones set throughput, small ones the median"},
	{name: "retarget-cold", retarget: true, cold: true, why: "inline-MDL retargets of never-seen revisions of all 7 models: full retarget, artifact encode and store write"},
	{name: "retarget-churn", retarget: true, cacheSize: 2, why: "by-name retargets cycling 7 persisted models through a 2-entry memory tier: every request is an artifact decode"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// program is one RecC program of a compile corpus.
type program struct {
	kernel string
	n      int // size parameter; 0 for the scalar kernels
	src    string
}

// sizedKernel is a DSPStone kernel with a size parameter.  small and large
// are its program counts in the two halves of the compile corpus; maxN is
// the largest size the large half draws (the tms320c25's 256-cell data
// memory binds n_complex_updates and biquad_N first).
type sizedKernel struct {
	name         string
	gen          func(int) dspstone.Kernel
	small, large int
	maxN         int
}

var sizedKernels = []sizedKernel{
	{"n_real_updates", dspstone.NRealUpdates, 5, 4, 64},
	{"n_complex_updates", dspstone.NComplexUpdates, 4, 2, 32},
	{"dot_product", dspstone.DotProduct, 5, 3, 64},
	{"fir", dspstone.Fir, 5, 3, 64},
	{"biquad_N", dspstone.BiquadN, 4, 2, 32},
	{"convolution", dspstone.Convolution, 5, 2, 64},
}

// scalarKernels have no size parameter; they are small programs.
var scalarKernels = []func() dspstone.Kernel{
	dspstone.RealUpdate, dspstone.ComplexMultiply, dspstone.ComplexUpdate, dspstone.BiquadOne,
}

// Corpus sizes: N ∈ [8,16] is DSPStone's own range; [24, maxN] the large
// half.  Small programs are two thirds of the corpus, so the median request
// is a small program and p90 a large one, each well inside its group.
const (
	smallLo, smallHi = 8, 16
	largeLo          = 24
	smallCount       = 32
	corpusSize       = 48
)

// compileModel is the processor the compile workload targets (figure 2).
const compileModel = "tms320c25"

// retargetModels are all bundled models: the six of table 3 plus brancher.
var retargetModels = []string{"demo", "ref", "manocpu", "tanenbaum", "bass_boost", "tms320c25", "brancher"}

// request is one call the client makes.
type request struct {
	prog  int    // compile: index into the plan's corpus
	model string // retarget: bundled model name
	mdl   string // retarget-cold: inline MDL of a never-seen revision
}

// plan is a workload's inputs for one seed: the compile corpus and the
// distinct requests a stream draws from.
type plan struct {
	w      workload
	seed   int64
	corpus []program
	reqs   []request
}

func newPlan(w workload, seed int64) *plan {
	p := &plan{w: w, seed: seed}
	if !w.retarget {
		p.corpus = makeCorpus(rand.New(rand.NewSource(seed)))
		for i := range p.corpus {
			p.reqs = append(p.reqs, request{prog: i})
		}
		return p
	}
	for _, m := range retargetModels {
		p.reqs = append(p.reqs, request{model: m})
	}
	return p
}

// makeCorpus draws the 48 programs of the compile corpus: 32 small ones
// (the scalar kernels and each sized kernel at N ∈ [8,16]) and 16 large
// ones.  The kernel mix is fixed and each kernel's sizes are drawn by
// mirroredSizes, so a seed changes the programs but neither the corpus's
// total size nor its largest program.
func makeCorpus(rng *rand.Rand) []program {
	var out []program
	for _, gen := range scalarKernels {
		k := gen()
		out = append(out, program{kernel: k.Name, src: k.Source})
	}
	for _, sk := range sizedKernels {
		for _, n := range mirroredSizes(rng, smallLo, smallHi, sk.small) {
			out = append(out, program{kernel: sk.name, n: n, src: sk.gen(n).Source})
		}
	}
	if len(out) != smallCount {
		panic(fmt.Sprintf("corpus has %d small programs, want %d", len(out), smallCount))
	}
	for _, sk := range sizedKernels {
		for _, n := range mirroredSizes(rng, largeLo, sk.maxN, sk.large) {
			out = append(out, program{kernel: sk.name, n: n, src: sk.gen(n).Source})
		}
	}
	if len(out) != corpusSize {
		panic(fmt.Sprintf("corpus has %d programs, want %d", len(out), corpusSize))
	}
	return out
}

// mirroredSizes draws count distinct sizes from [lo, hi] (hi-lo even) in
// pairs that mirror around the midpoint, so their sum is the same for
// every seed: always the outermost pair, then seeded inner pairs, then the
// midpoint when count is odd.
func mirroredSizes(rng *rand.Rand, lo, hi, count int) []int {
	out := []int{lo, hi}
	for _, d := range rng.Perm((hi-lo)/2 - 1)[:(count-2)/2] {
		out = append(out, lo+1+d, hi-1-d)
	}
	if count%2 == 1 {
		out = append(out, (lo+hi)/2)
	}
	return out
}

// stream is an endless request sequence: the plan's requests in a fresh
// seeded order every round.
type stream struct {
	p     *plan
	tag   string // names the stream in cold revisions, keeping them unique
	rng   *rand.Rand
	round []request // what is left of the current round
	last  []request // the current round, whole
	sent  int
}

// stream returns a request sequence.  Streams with different tags draw
// different orders and, on retarget-cold, different revisions.
func (p *plan) stream(tag string) *stream {
	h := int64(0)
	for _, ch := range tag {
		h = h*31 + int64(ch)
	}
	return &stream{p: p, tag: tag, rng: rand.New(rand.NewSource(p.seed*7919 + h*131))}
}

// pass returns the first round of a fresh stream: every distinct request
// of the plan once.
func (s *stream) pass() []request {
	out := []request{s.next()}
	for len(s.round) > 0 {
		out = append(out, s.next())
	}
	return out
}

func (s *stream) next() request {
	if len(s.round) == 0 {
		s.round = s.draw()
		s.last = s.round
	}
	q := s.round[0]
	s.round = s.round[1:]
	if s.p.w.cold {
		src, _ := models.Get(q.model)
		q.mdl = fmt.Sprintf("-- rev %s-%d\n%s", s.tag, s.sent, src)
	}
	s.sent++
	return q
}

// draw returns the next round in a seeded order.  On retarget-churn a round
// never opens with a model the 2-entry memory tier still holds, so no
// model comes back within two requests and every request of the stream is
// a disk-tier hit.
func (s *stream) draw() []request {
	for {
		round := make([]request, 0, len(s.p.reqs))
		for _, i := range s.rng.Perm(len(s.p.reqs)) {
			round = append(round, s.p.reqs[i])
		}
		n := len(s.last)
		if !s.p.w.churn() || n == 0 || (round[0] != s.last[n-1] && round[0] != s.last[n-2] && round[1] != s.last[n-1]) {
			return round
		}
	}
}
