package main

import (
	"math/rand"
	"slices"
	"time"
)

// The hosts this benchmark runs on are small shares of a shared machine,
// and their speed drifts: over a few minutes the same compile work was
// seen to slow by 30 % and recover, with recordd's CPU time per request
// moving in step, so the work itself ran slower.  A benchmark whose runs
// land at different points of such a drift disagrees with itself by more
// than any useful bound.
//
// The probe measures that drift.  It is a fixed piece of work, frozen in
// this file and independent of the program under test, timed in short
// bursts between the slices of the measured window and around each setup,
// while recordd is idle.  Its median iteration time over probeRef is the
// host factor: 1 on the reference host, above 1 when the host runs slower.
// The end-to-end time metrics are reported scaled by it (rates multiplied,
// times divided), that is, as they would read on the reference host; the
// raw values are printed beside them and kept in the results document.
type probe struct {
	src, buf, table []uint32
}

const (
	probeBurst = 200 * time.Millisecond
	// probeRef is one probe iteration on the reference host: a 2-vCPU
	// Intel Xeon VM (Go 1.24, GOMAXPROCS 2) at the fastest it was seen.
	probeRef = 4 * time.Millisecond
	// probeWords is the sorted array's length; the table is 1<<probeBits
	// words (4 MiB), larger than a core's share of cache.
	probeWords = 50000
	probeBits  = 20
)

func newProbe() *probe {
	rng := rand.New(rand.NewSource(1))
	p := &probe{src: make([]uint32, probeWords), buf: make([]uint32, probeWords), table: make([]uint32, 1<<probeBits)}
	for i := range p.src {
		p.src[i] = rng.Uint32()
	}
	return p
}

// iteration sorts a copy of the random words and inserts them into an
// open-addressing table: branchy compute plus cache-missing memory
// traffic, the two things the program's own work is made of.  It does not
// allocate, so the benchmark's own heap, which depends on the program's
// reference outputs, does not change its cost.
func (p *probe) iteration() {
	copy(p.buf, p.src)
	slices.Sort(p.buf)
	mask := uint32(len(p.table) - 1)
	for _, v := range p.buf {
		h := (v * 2654435761) >> (32 - probeBits)
		for p.table[h] != 0 {
			h = (h + 1) & mask
		}
		p.table[h] = v | 1
	}
	clear(p.table)
}

// factor runs iterations for probeBurst and returns the host factor.
func (p *probe) factor() float64 {
	var t []float64
	for start := time.Now(); time.Since(start) < probeBurst; {
		t0 := time.Now()
		p.iteration()
		t = append(t, float64(time.Since(t0)))
	}
	return median(t) / float64(probeRef)
}
