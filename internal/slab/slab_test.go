package slab

import "testing"

// TestReuseAfterReset checks that carved values are zeroed, never overlap
// while live, and that a reset slab serves the same use from its own
// chunks without allocating.
func TestReuseAfterReset(t *testing.T) {
	var s Slab[int]
	use := func() {
		var all [][]int
		for n := range 300 {
			v := s.Make(n % 7)
			for i := range v {
				if v[i] != 0 {
					t.Fatalf("element %d of a fresh value is %d", i, v[i])
				}
				v[i] = n
			}
			if cap(v) != len(v) {
				t.Fatalf("cap %d for length %d", cap(v), len(v))
			}
			all = append(all, v)
		}
		for n, v := range all {
			for _, x := range v {
				if x != n {
					t.Fatalf("value %d was overwritten with %d", n, x)
				}
			}
		}
		*s.New() = 1
	}
	use()
	if allocs := testing.AllocsPerRun(10, func() {
		s.Reset()
		sum := 0
		for n := range 300 {
			sum += len(s.Make(n % 7))
		}
		_ = sum
	}); allocs != 0 {
		t.Errorf("a reset slab allocated %.0f times", allocs)
	}
	s.Reset()
	use()
}
