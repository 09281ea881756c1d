package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the per-node vnode count when NewRing is given
// zero.  128 points per node keeps the load spread within a few percent
// of uniform for small fleets while the ring stays tiny (a 3-node fleet
// is 384 points, one binary search per lookup).
const DefaultVirtualNodes = 128

// hash64 is the ring's hash: the first 8 bytes of SHA-256, matching the
// family of the artifact content addresses the ring is keyed on.  Speed
// is irrelevant here (one hash per lookup, a few hundred when a ring is
// built); stability and spread are what matter.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Ring is a consistent-hash ring with virtual nodes.  Keys (artifact
// content addresses) map to the first node point at or clockwise after
// the key's hash; each node contributes vnodes points so load spreads
// evenly.  A ring without one of the nodes differs only in that node's
// keys — the property the stability test pins down.
//
// A Ring is immutable once built, so it is safe for concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  int         // distinct members
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given nodes (duplicates ignored) with
// vnodes virtual points per node (0 = DefaultVirtualNodes).
func NewRing(vnodes int, nodes ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if seen[n] {
			continue
		}
		seen[n] = true
		r.nodes++
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Successors returns up to n distinct nodes in ring order starting at
// key's owner: the owner first, then each next distinct node clockwise.
// This is the failover order — when the owner is down, the next successor
// is the node whose cache is most likely warm for neighboring keys.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > r.nodes {
		n = r.nodes
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
