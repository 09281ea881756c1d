package main

import (
	"fmt"
	"slices"
	"testing"
)

// draw returns the first n requests of a stream, each rendered as the
// input recordd receives.
func draw(p *plan, tag string, n int) []string {
	s := p.stream(tag)
	out := make([]string, n)
	for i := range out {
		q := s.next()
		switch {
		case !p.w.retarget:
			out[i] = p.corpus[q.prog].src
		case p.w.cold:
			out[i] = q.mdl
		default:
			out[i] = "model_name=" + q.model
		}
	}
	return out
}

func TestPlanDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 1997, 2024} {
			a, b := newPlan(w, seed), newPlan(w, seed)
			if fmt.Sprint(a.corpus) != fmt.Sprint(b.corpus) {
				t.Errorf("%s seed %d: corpus differs between two plans", w.name, seed)
			}
			if !slices.Equal(draw(a, "load", 100), draw(b, "load", 100)) {
				t.Errorf("%s seed %d: request order differs between two plans", w.name, seed)
			}
		}
		if slices.Equal(draw(newPlan(w, 1), "load", 100), draw(newPlan(w, 2), "load", 100)) {
			t.Errorf("%s: seeds 1 and 2 give the same requests", w.name)
		}
	}
}

// TestColdRevisionsNeverRepeat holds the property that keeps retarget-cold
// cold: no revision is sent twice, within a stream or across the setup,
// load and replay streams of one seed.
func TestColdRevisionsNeverRepeat(t *testing.T) {
	w, _ := workloadByName("retarget-cold")
	for _, seed := range []int64{1, 1997, 2024} {
		p := newPlan(w, seed)
		seen := map[string]string{}
		for _, tag := range []string{"setup-0", "setup-1", "load", "replay"} {
			for _, in := range draw(p, tag, 200) {
				if prev, ok := seen[in]; ok {
					t.Fatalf("seed %d: streams %s and %s both send %.60q", seed, prev, tag, in)
				}
				seen[in] = tag
			}
		}
	}
}

// TestPassCoversEveryInput: the setup pass sends each distinct request
// once.
func TestPassCoversEveryInput(t *testing.T) {
	for _, w := range workloads {
		p := newPlan(w, 1997)
		got := map[request]int{}
		for _, q := range p.stream("setup-0").pass() {
			q.mdl = ""
			got[q]++
		}
		if len(got) != len(p.reqs) {
			t.Errorf("%s: pass holds %d distinct requests, want %d", w.name, len(got), len(p.reqs))
		}
		for q, n := range got {
			if n != 1 {
				t.Errorf("%s: %+v sent %d times in the pass, want once", w.name, q, n)
			}
		}
	}
}

// TestChurnAlwaysMissesMemoryTier: no retarget-churn model comes back
// within two requests, so the 2-entry memory tier never holds it.
func TestChurnAlwaysMissesMemoryTier(t *testing.T) {
	w, _ := workloadByName("retarget-churn")
	for _, seed := range []int64{1, 1997, 2024} {
		in := draw(newPlan(w, seed), "load", 1000)
		for i := 2; i < len(in); i++ {
			if in[i] == in[i-1] || in[i] == in[i-2] {
				t.Fatalf("seed %d: request %d (%s) repeats one of the two before it", seed, i, in[i])
			}
		}
	}
}

func TestCorpusShape(t *testing.T) {
	w, _ := workloadByName("compile")
	for _, seed := range []int64{1, 1997, 2024} {
		p := newPlan(w, seed)
		distinct := map[string]bool{}
		total := map[string]int{}
		for _, prog := range p.corpus {
			distinct[prog.src] = true
			total[prog.kernel] += prog.n
		}
		if len(distinct) != corpusSize {
			t.Errorf("seed %d: %d distinct programs, want %d", seed, len(distinct), corpusSize)
		}
		for i, prog := range p.corpus {
			if large := prog.n >= largeLo; large != (i >= smallCount) {
				t.Errorf("seed %d: program %d (%s n=%d) is in the wrong half", seed, i, prog.kernel, prog.n)
			}
		}
		// Mirrored sizes keep each kernel's total size seed-independent.
		ref := map[string]int{}
		for _, prog := range newPlan(w, seed+1).corpus {
			ref[prog.kernel] += prog.n
		}
		if fmt.Sprint(total) != fmt.Sprint(ref) {
			t.Errorf("per-kernel size totals differ between seeds: %v vs %v", total, ref)
		}
	}
}
