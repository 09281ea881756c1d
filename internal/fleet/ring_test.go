package fleet

import (
	"fmt"
	"reflect"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	return out
}

// owner is the node a key routes to first ("" on an empty ring).
func owner(r *Ring, key string) string {
	if s := r.Successors(key, 1); len(s) > 0 {
		return s[0]
	}
	return ""
}

func TestRingOwnerDeterministic(t *testing.T) {
	a := NewRing(0, "n1", "n2", "n3")
	b := NewRing(0, "n3", "n1", "n2") // insertion order must not matter
	for _, k := range keys(200) {
		if owner(a, k) != owner(b, k) {
			t.Fatalf("owner of %s differs across construction orders: %s vs %s",
				k, owner(a, k), owner(b, k))
		}
	}
}

func TestRingSuccessorsDistinctAndStable(t *testing.T) {
	r := NewRing(0, "n1", "n2", "n3")
	for _, k := range keys(100) {
		s := r.Successors(k, 3)
		if len(s) != 3 {
			t.Fatalf("successors(%s) = %v, want 3 distinct nodes", k, s)
		}
		seen := map[string]bool{}
		for _, n := range s {
			if seen[n] {
				t.Fatalf("successors(%s) repeats %s: %v", k, n, s)
			}
			seen[n] = true
		}
		if s[0] != owner(r, k) {
			t.Fatalf("successors(%s)[0] = %s, owner = %s", k, s[0], owner(r, k))
		}
		if got := r.Successors(k, 10); len(got) != 3 {
			t.Fatalf("successors capped at membership: %v", got)
		}
	}
}

// TestRingStabilityOnRemoval is the consistent-hashing contract: a ring
// without one endpoint remaps only the keys that endpoint owned.  Every
// other key keeps its owner, so a node death never invalidates the
// surviving nodes' cache locality.
func TestRingStabilityOnRemoval(t *testing.T) {
	r := NewRing(0, "n1", "n2", "n3", "n4", "n5")
	victim := "n3"
	without := NewRing(0, "n1", "n2", "n4", "n5")
	remapped := 0
	for _, k := range keys(500) {
		before, after := owner(r, k), owner(without, k)
		if after == victim {
			t.Fatalf("removed node still owns %s", k)
		}
		switch {
		case before == victim:
			remapped++
		case after != before:
			t.Fatalf("key %s moved from surviving node %s to %s", k, before, after)
		}
	}
	if remapped == 0 {
		t.Fatal("victim owned no keys; test has no teeth (bad spread?)")
	}
}

func TestRingSpread(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	r := NewRing(0, nodes...)
	counts := map[string]int{}
	ks := keys(3000)
	for _, k := range ks {
		counts[owner(r, k)]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / float64(len(ks))
		if share < 0.15 || share > 0.55 {
			t.Fatalf("node %s owns %.0f%% of keys; vnode spread broken: %v",
				n, share*100, counts)
		}
	}
}

func TestRingEmptyAndMembership(t *testing.T) {
	if r := NewRing(4); owner(r, "k") != "" || r.Successors("k", 2) != nil {
		t.Fatal("empty ring not empty")
	}
	r := NewRing(4, "a", "a") // duplicates ignored
	if got := r.Successors("k", 2); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("membership: successors %v", got)
	}
}
