// Package slab carves many small values out of a few large chunks, so a
// hot path that makes one value per tree node or per instruction pays one
// allocation per chunk instead of one per value.
package slab

// First and largest chunk lengths; each new chunk doubles the last.
const (
	minChunk = 64
	maxChunk = 256
)

// Slab hands out zeroed values carved from chunks it keeps.  Values stay
// valid until Reset, which makes every chunk available again, so a slab
// that is reset between uses stops allocating once its chunks cover the
// largest use.  The zero value is an empty slab.  A Slab is not safe for
// concurrent use.
type Slab[T any] struct {
	chunks [][]T
	cur    int // the chunk being carved
	off    int // its first unclaimed element
}

// Make returns n zeroed elements, with length and capacity n.
func (s *Slab[T]) Make(n int) []T {
	for ; s.cur < len(s.chunks); s.cur, s.off = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.off+n <= len(c) {
			out := c[s.off : s.off+n : s.off+n]
			s.off += n
			clear(out)
			return out
		}
	}
	size := minChunk
	if k := len(s.chunks); k > 0 {
		size = min(2*len(s.chunks[k-1]), maxChunk)
	}
	s.chunks = append(s.chunks, make([]T, max(size, n)))
	s.off = n
	return s.chunks[s.cur][:n:n]
}

// New returns a pointer to one zeroed element.
func (s *Slab[T]) New() *T { return &s.Make(1)[0] }

// Reset makes every chunk available again.  Values handed out before must
// no longer be used.
func (s *Slab[T]) Reset() { s.cur, s.off = 0, 0 }
