package rewrite

import "repro/internal/rtl"

// node is the tests' own expression tree: a head over kid pointers.  The
// reference extension and matcher work on it and convert to handles only
// where they compare with the package's results.
type node struct {
	rtl.Expr
	kids []*node
}

func read(name string) *node {
	return &node{Expr: rtl.Expr{Kind: rtl.Read, Storage: name, Width: 16}}
}
func cnst(v int64, w int) *node { return &node{Expr: rtl.Expr{Kind: rtl.Const, Val: v, Width: w}} }
func op(o rtl.Op, w int, kids ...*node) *node {
	return &node{rtl.Expr{Kind: rtl.OpApp, Op: o, Width: w}, kids}
}

// nodeOf reads the tree of handle h back out of s.
func nodeOf(s *rtl.Store, h rtl.ExprID) *node {
	if h == rtl.NoExpr {
		return nil
	}
	n := &node{Expr: *s.Expr(h)}
	for _, k := range s.Kids(h) {
		n.kids = append(n.kids, nodeOf(s, k))
	}
	return n
}

// build builds n into s and returns its handle (NoExpr for nil).
func (n *node) build(s *rtl.Store) rtl.ExprID {
	if n == nil {
		return rtl.NoExpr
	}
	kids := make([]rtl.ExprID, len(n.kids))
	for i, k := range n.kids {
		kids[i] = k.build(s)
	}
	return s.Node(n.Expr, kids...)
}

// equal compares two trees head by head and kid by kid.
func (n *node) equal(o *node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Expr != o.Expr || len(n.kids) != len(o.kids) {
		return false
	}
	for i, k := range n.kids {
		if !k.equal(o.kids[i]) {
			return false
		}
	}
	return true
}

// swapSite reports whether n is a commutative binary operator.
func (n *node) swapSite() bool {
	return n.Kind == rtl.OpApp && len(n.kids) == 2 && n.Op.Commutative()
}

func (n *node) String() string {
	var s rtl.Store
	return s.String(n.build(&s))
}

// refBindings are the reference matcher's bindings.
type refBindings struct {
	sub    map[string]*node
	consts map[string]int64
}

// refMatch matches p against n node by node, binding into maps; a
// repeated variable matches equal trees.
func refMatch(p *Pattern, n *node) (*refBindings, bool) {
	b := &refBindings{sub: map[string]*node{}, consts: map[string]int64{}}
	var match func(p *Pattern, n *node) bool
	match = func(p *Pattern, n *node) bool {
		switch p.Kind {
		case PVar:
			if prev, ok := b.sub[p.Name]; ok {
				return prev.equal(n)
			}
			b.sub[p.Name] = n
			return true
		case PConst:
			return n.Kind == rtl.Const && n.Val == p.Val
		case PAnyConst:
			if n.Kind != rtl.Const {
				return false
			}
			if prev, ok := b.consts[p.Name]; ok {
				return prev == n.Val
			}
			b.consts[p.Name] = n.Val
			return true
		case POp:
			if n.Kind != rtl.OpApp || n.Op != p.Op || len(n.kids) != len(p.Kids) {
				return false
			}
			for i, k := range p.Kids {
				if !match(k, n.kids[i]) {
					return false
				}
			}
			return true
		}
		return false
	}
	if match(p, n) {
		return b, true
	}
	return nil, false
}

// refInstantiate builds p's tree under b at width, nil on an unbound
// variable.  Operands of a 1-bit comparison take a bound sibling's width.
func refInstantiate(p *Pattern, b *refBindings, width int) *node {
	switch p.Kind {
	case PVar:
		return b.sub[p.Name]
	case PConst:
		return cnst(p.Val, width)
	case PAnyConst:
		v, ok := b.consts[p.Name]
		if !ok {
			return nil
		}
		return cnst(v, width)
	case POp:
		out := op(p.Op, width)
		for i, k := range p.Kids {
			kw := width
			if isComparison(p.Op) && width == 1 {
				for j, sib := range p.Kids {
					if j != i && sib.Kind == PVar && b.sub[sib.Name] != nil {
						kw = b.sub[sib.Name].Width
						break
					}
				}
			}
			kid := refInstantiate(k, b, kw)
			if kid == nil {
				return nil
			}
			out.kids = append(out.kids, kid)
		}
		return out
	}
	return nil
}

// refRuleVariants applies each rule, in order, at every node of e: one
// variant per application, the path to the node copied, at most limit
// per rule.
func refRuleVariants(e *node, rules []Rule, limit int) []*node {
	var out []*node
	var replace func(n *node, path []int, repl *node) *node
	replace = func(n *node, path []int, repl *node) *node {
		if len(path) == 0 {
			return repl
		}
		c := &node{Expr: n.Expr, kids: append([]*node(nil), n.kids...)}
		c.kids[path[0]] = replace(n.kids[path[0]], path[1:], repl)
		return c
	}
	for _, r := range rules {
		start := len(out)
		var walk func(n *node, path []int)
		walk = func(n *node, path []int) {
			if len(out)-start >= limit {
				return
			}
			if b, ok := refMatch(r.HW, n); ok {
				accept := true
				if r.MapConsts != nil {
					var hw Consts
					for name, v := range b.consts {
						hw = append(hw, Bound[int64]{name, v})
					}
					mapped, ok := r.MapConsts(hw)
					b.consts = map[string]int64{}
					for _, c := range mapped {
						b.consts[c.Name] = c.Val
					}
					accept = ok
				}
				if repl := refInstantiate(r.Prog, b, n.Width); accept && repl != nil {
					out = append(out, replace(e, path, repl))
				}
			}
			for i, k := range n.kids {
				walk(k, append(path[:len(path):len(path)], i))
			}
		}
		walk(e, nil)
	}
	return out
}
