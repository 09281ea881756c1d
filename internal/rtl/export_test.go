package rtl

// Tree exposes the tests' reference tree to the external tests.
type Tree = tree

// TreeOf reads the tree of handle h back out of s.
func TreeOf(s *Store, h ExprID) *Tree { return treeOf(s, h) }

// Build builds t into s and returns its handle.
func (t *tree) Build(s *Store) ExprID { return t.build(s) }

// Equal compares two reference trees.
func (t *tree) Equal(o *tree) bool { return t.equal(o) }
