package compact

import (
	"math/rand"
	"testing"

	"repro/internal/code"
)

// TestLocWordsMatchesOverlaps checks the location tables against
// code.Loc.Overlaps over every recorded access: for random accesses to
// known and unknown cells of two storages, latest must return the largest
// word of an overlapping access, or -1.
func TestLocWordsMatchesOverlaps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randLoc := func() code.Loc {
		l := code.Loc{Storage: []string{"acc.r", "dmem.m"}[rng.Intn(2)], Addr: int64(rng.Intn(4))}
		l.AddrKnown = rng.Intn(4) != 0
		return l
	}
	for trial := 0; trial < 200; trial++ {
		table := locWords{}
		type access struct {
			l code.Loc
			w int
		}
		var seen []access
		for step := 0; step < 20; step++ {
			a := access{randLoc(), rng.Intn(10)}
			table.add(a.l, a.w)
			seen = append(seen, a)
			q := randLoc()
			want := -1
			for _, s := range seen {
				if s.l.Overlaps(q) {
					want = max(want, s.w)
				}
			}
			if got := table.latest(q); got != want {
				t.Fatalf("trial %d: latest(%s) = %d after %v, want %d", trial, q, got, seen, want)
			}
		}
	}
}
