// Package rewrite implements the template-base extension of paper
// section 3: the RT template base delivered by instruction-set extraction
// is enlarged by templates that cannot be derived directly from the
// processor model.
//
// Two mechanisms are provided:
//
//   - Commutativity.  For each template containing a commutative operator, a
//     complementary entry with swapped arguments is added.  This avoids
//     code-quality loss on badly structured expression trees, which matters
//     for the sum-of-product computations dominating DSP code.  An entry is
//     a swap (rtl.Swap): the template plus a mask of the operators whose
//     operands are exchanged, counted in the base but matched by the tree
//     parser on the template's own pattern, so a swap builds no tree, no
//     template and no pattern.  Only a swap that would meet another
//     transfer (and merge with it) is built as a template.
//
//   - An external transformation library of algebraic rewrite rules.  Each
//     rule pairs a program-side pattern with a hardware-side pattern; when a
//     template subtree matches the hardware side, a synthetic template with
//     the program-side form is added, so that source programs written in
//     the program form can be covered by the same hardware route.
package rewrite

import (
	"fmt"

	"repro/internal/rtl"
)

// PatKind discriminates pattern nodes.
type PatKind int

// Pattern node kinds.
const (
	PVar      PatKind = iota // matches any subtree, binds it by name
	PConst                   // matches a specific constant value
	PAnyConst                // matches any constant, binds its value by name
	POp                      // matches an operator application
)

// Pattern is a tree pattern over RT expressions.
type Pattern struct {
	Kind PatKind
	Name string // PVar / PAnyConst
	Val  int64  // PConst
	Op   rtl.Op // POp
	Kids []*Pattern
}

// V builds a subtree variable pattern.
func V(name string) *Pattern { return &Pattern{Kind: PVar, Name: name} }

// C builds a specific-constant pattern.
func C(val int64) *Pattern { return &Pattern{Kind: PConst, Val: val} }

// AC builds an any-constant pattern binding the value as name.
func AC(name string) *Pattern { return &Pattern{Kind: PAnyConst, Name: name} }

// Op builds an operator pattern.
func Op(op rtl.Op, kids ...*Pattern) *Pattern {
	return &Pattern{Kind: POp, Op: op, Kids: kids}
}

func (p *Pattern) String() string {
	switch p.Kind {
	case PVar:
		return "$" + p.Name
	case PConst:
		return fmt.Sprintf("%d", p.Val)
	case PAnyConst:
		return "#" + p.Name
	case POp:
		if len(p.Kids) == 1 {
			return fmt.Sprintf("%s(%s)", p.Op, p.Kids[0])
		}
		return fmt.Sprintf("(%s %s %s)", p.Kids[0], p.Op, p.Kids[1])
	}
	return "?"
}

// Bindings holds the result of a successful match: the handle each
// subtree variable binds and the value each constant variable binds.
type Bindings struct {
	Sub   []Bound[rtl.ExprID] // PVar bindings
	Const Consts              // PAnyConst bindings
}

// Bound binds a pattern variable's name to a value.
type Bound[T any] struct {
	Name string
	Val  T
}

// Consts are constant bindings.
type Consts []Bound[int64]

// Get returns the value bound to name.
func (c Consts) Get(name string) (int64, bool) { return lookup(c, name) }

// lookup returns the value bound to name in bs.
func lookup[T any](bs []Bound[T], name string) (T, bool) {
	for _, b := range bs {
		if b.Name == name {
			return b.Val, true
		}
	}
	var none T
	return none, false
}

// Match reports whether p matches the tree of handle h in store s,
// filling b, which it empties first, with the bindings.  A variable
// repeated in p matches only one handle: one subtree.
func (p *Pattern) Match(s *rtl.Store, h rtl.ExprID, b *Bindings) bool {
	b.Sub, b.Const = b.Sub[:0], b.Const[:0]
	return p.match(s, h, b)
}

func (p *Pattern) match(s *rtl.Store, h rtl.ExprID, b *Bindings) bool {
	e := s.Expr(h)
	switch p.Kind {
	case PVar:
		if prev, ok := lookup(b.Sub, p.Name); ok {
			return prev == h
		}
		b.Sub = append(b.Sub, Bound[rtl.ExprID]{p.Name, h})
	case PConst:
		return e.Kind == rtl.Const && e.Val == p.Val
	case PAnyConst:
		if e.Kind != rtl.Const {
			return false
		}
		if prev, ok := b.Const.Get(p.Name); ok {
			return prev == e.Val
		}
		b.Const = append(b.Const, Bound[int64]{p.Name, e.Val})
	case POp:
		kids := s.Kids(h)
		if e.Kind != rtl.OpApp || e.Op != p.Op || len(kids) != len(p.Kids) {
			return false
		}
		for i, k := range p.Kids {
			if !k.match(s, kids[i], b) {
				return false
			}
		}
	default:
		return false
	}
	return true
}

// Instantiate builds the tree of p under bindings b in store s, with the
// given result width, and returns its handle.
func (p *Pattern) Instantiate(s *rtl.Store, b *Bindings, width int) (rtl.ExprID, error) {
	switch p.Kind {
	case PVar:
		h, ok := lookup(b.Sub, p.Name)
		if !ok {
			return rtl.NoExpr, fmt.Errorf("rewrite: unbound variable $%s", p.Name)
		}
		return h, nil
	case PConst:
		return s.Const(p.Val, width), nil
	case PAnyConst:
		v, ok := b.Const.Get(p.Name)
		if !ok {
			return rtl.NoExpr, fmt.Errorf("rewrite: unbound constant #%s", p.Name)
		}
		return s.Const(v, width), nil
	case POp:
		var buf [2]rtl.ExprID
		kids := buf[:0]
		for i, k := range p.Kids {
			kw := width
			if isComparison(p.Op) && width == 1 {
				// Comparison operands keep their own widths via bindings;
				// fresh constants inherit the sibling width below.
				kw = siblingWidth(s, p.Kids, i, b, width)
			}
			kid, err := k.Instantiate(s, b, kw)
			if err != nil {
				return rtl.NoExpr, err
			}
			kids = append(kids, kid)
		}
		return s.Op(p.Op, width, kids...), nil
	}
	return rtl.NoExpr, fmt.Errorf("rewrite: bad pattern kind")
}

func isComparison(op rtl.Op) bool {
	switch op {
	case rtl.OpEq, rtl.OpNe, rtl.OpLt, rtl.OpLe, rtl.OpGt, rtl.OpGe:
		return true
	}
	return false
}

func siblingWidth(s *rtl.Store, kids []*Pattern, i int, b *Bindings, fallback int) int {
	for j, k := range kids {
		if j == i {
			continue
		}
		if k.Kind == PVar {
			if h, ok := lookup(b.Sub, k.Name); ok {
				return s.Expr(h).Width
			}
		}
	}
	return fallback
}

// Rule pairs a program-side pattern with a hardware-side pattern.
// During extension, template subtrees matching HW spawn synthetic templates
// with the Prog form substituted (the hardware still executes HW; the rule
// asserts semantic equivalence).
type Rule struct {
	Name string
	Prog *Pattern
	HW   *Pattern
	// MapConsts optionally derives program-side constant bindings from the
	// hardware-side ones (e.g. c = 2^k for shift-to-multiply), and may
	// build them in hw's array.  It returns false when the match should
	// be rejected.
	MapConsts func(hw Consts) (Consts, bool)
}

// StandardLibrary returns the default transformation library: algebraic
// identities that commonly bridge DSP source code and datapath structure.
func StandardLibrary() []Rule {
	return []Rule{
		{
			// a * 2^k  ==  a << k
			Name: "mul2shift",
			Prog: Op(rtl.OpMul, V("a"), AC("c")),
			HW:   Op(rtl.OpShl, V("a"), AC("k")),
			MapConsts: func(hw Consts) (Consts, bool) {
				k, _ := hw.Get("k")
				if k < 0 || k > 30 {
					return hw[:0], false
				}
				return append(hw[:0], Bound[int64]{"c", 1 << uint(k)}), true
			},
		},
		{
			// a - b  ==  a + neg(b)
			Name: "subIsAddNeg",
			Prog: Op(rtl.OpSub, V("a"), V("b")),
			HW:   Op(rtl.OpAdd, V("a"), Op(rtl.OpNeg, V("b"))),
		},
		{
			// neg(a)  ==  0 - a
			Name: "negIsZeroSub",
			Prog: Op(rtl.OpNeg, V("a")),
			HW:   Op(rtl.OpSub, C(0), V("a")),
		},
		{
			// a  ==  pass(a): wires through ALU pass modes cover plain moves
			Name: "passthrough",
			Prog: V("a"),
			HW:   Op(rtl.OpPass, V("a")),
		},
	}
}

// Options configures Extend.
type Options struct {
	Commutativity bool
	Rules         []Rule
	// MaxVariantsPerTemplate bounds combinatorial swap generation.
	MaxVariantsPerTemplate int
}

// DefaultOptions enables commutativity and the standard library.
func DefaultOptions() Options {
	return Options{
		Commutativity:          true,
		Rules:                  StandardLibrary(),
		MaxVariantsPerTemplate: 128,
	}
}

// Extend enlarges base in place with synthetic entries and returns the
// number added (paper section 3).  Each commutative operand swap of a
// template becomes a swap entry over it (rtl.Base.AddSwap), which the
// grammar matches with the operands exchanged; each rule variant becomes
// a synthetic template.  A template's variants depend on its source tree
// alone, so they are computed once per distinct source and replayed, in
// the same order, for every template sharing it.
//
// A swap stays an entry only where it cannot meet another transfer: a
// swap equal to a template, a rule variant or another swap would merge
// into it.  Such a swap lies in the commutation class of its origin, so
// when an origin's class (per destination and address) holds any other
// template or rule variant, or two operands of one of its commutative
// operators are in one class, its swaps are built, interned and added as
// templates instead, with AddVariant's merging.  Extend runs once per
// base: it neither extends nor deduplicates against swap entries the base
// already holds.
func Extend(base *rtl.Base, opts Options) int {
	if opts.MaxVariantsPerTemplate <= 0 {
		opts.MaxVariantsPerTemplate = 128
	}
	before := base.Len()
	// Snapshot: extension applies to extracted templates (and first-level
	// synthetic results), not to its own output transitively forever.
	snapshot := append([]*rtl.Template(nil), base.Templates...)
	store := base.Exprs()
	memo := make([]sourceVariants, store.Len())
	var b Bindings // every rule probe's, reused
	variantsOf := func(t *rtl.Template) *sourceVariants {
		v := &memo[t.Src]
		if !v.ready {
			v.derive(store, t.Src, opts, &b)
		}
		return v
	}
	// Count the templates and rule variants of every (destination,
	// address, commutation class) group; keys[i] is snapshot[i]'s group.
	// A tree without swap sites is alone in its class and is left out.
	var keys []group
	var groups map[group]int
	if opts.Commutativity {
		keys = make([]group, len(snapshot))
		groups = make(map[group]int, len(snapshot))
		for i, t := range snapshot {
			v := variantsOf(t)
			if v.sites > 0 {
				keys[i] = groupOf(t, v.class)
				groups[keys[i]]++
			}
			for _, c := range v.ruleClasses {
				groups[groupOf(t, c)]++
			}
		}
	}
	masks := commuter[uint64]{s: store, limit: opts.MaxVariantsPerTemplate,
		leaf: func(rtl.ExprID) uint64 { return 0 },
		join: func(_ *rtl.Expr, site int, l, r uint64, swapped bool) uint64 {
			if swapped {
				return l | r | 1<<uint(site)
			}
			return l | r
		}}
	trees := commuter[rtl.ExprID]{s: store, limit: opts.MaxVariantsPerTemplate,
		leaf: func(h rtl.ExprID) rtl.ExprID { return h },
		join: func(n *rtl.Expr, _ int, l, r rtl.ExprID, swapped bool) rtl.ExprID {
			switch {
			case n.Op.Arity() == 1:
				return store.Op(n.Op, n.Width, l)
			case swapped:
				return store.Op(n.Op, n.Width, r, l)
			}
			return store.Op(n.Op, n.Width, l, r)
		}}
	for i, t := range snapshot {
		v := variantsOf(t)
		if opts.Commutativity && v.sites > 0 {
			if v.distinct && groups[keys[i]] == 1 {
				// The first form is the source itself.
				for _, m := range masks.forms(t.Src)[1:] {
					base.AddSwap(t, m)
				}
			} else {
				for _, id := range trees.forms(t.Src) {
					if id != t.Src {
						base.AddVariant(t, id)
					}
				}
			}
		}
		for _, id := range v.rules {
			base.AddVariant(t, id)
		}
	}
	return base.Len() - before
}

// sourceVariants is what extension derives from one template source.
type sourceVariants struct {
	ready bool
	// sites counts the source's swap sites.  class hashes its commutation
	// class; distinct reports that it has at most 64 sites and no
	// commutative operator with operands of one class, so that every swap
	// mask gives a tree of its own, none of them the source.
	sites    int
	class    uint32
	distinct bool
	// rules are the rule variants, in generation order and with repeats,
	// minus the source itself; ruleClasses are the classes of those with
	// swap sites.
	rules       []rtl.ExprID
	ruleClasses []uint32
}

// derive fills v from source src of store s, matching rules into b.
func (v *sourceVariants) derive(s *rtl.Store, src rtl.ExprID, opts Options, b *Bindings) {
	v.ready = true
	if opts.Commutativity {
		if v.sites = s.SwapSites(src); v.sites > 0 {
			v.class, v.distinct = s.ClassHash(src)
			v.distinct = v.distinct && v.sites <= 64
		}
	}
	ruleVariants(s, src, opts.Rules, opts.MaxVariantsPerTemplate, b, func(id rtl.ExprID) {
		if id == src {
			return
		}
		v.rules = append(v.rules, id)
		if opts.Commutativity && s.SwapSites(id) > 0 {
			c, _ := s.ClassHash(id)
			v.ruleClasses = append(v.ruleClasses, c)
		}
	})
}

// commuter enumerates commuted forms, of some representation F, into a
// buffer it reuses: a swap mask per form, or the swapped tree.
type commuter[F any] struct {
	s     *rtl.Store
	limit int
	// leaf makes the form of a subtree swaps do not enter.  join makes an
	// operator's form from its operands' forms (l alone for a unary
	// operator); site numbers the operator among the swap sites when it
	// is one, and swapped asks for its operands exchanged.
	leaf func(rtl.ExprID) F
	join func(n *rtl.Expr, site int, l, r F, swapped bool) F
	buf  []F
}

// forms returns the commuted forms of tree h in generation order, h
// itself first: every combination of operand swaps at the swap sites
// reachable from the root through operators, at most limit of them.  The
// result is valid until the next call.
func (c *commuter[F]) forms(h rtl.ExprID) []F {
	c.buf = c.buf[:0]
	forms, _ := c.rec(h, 0)
	return forms
}

// rec appends the forms of h, whose first swap site is site, to the
// buffer and returns them with the site after h's last.
func (c *commuter[F]) rec(h rtl.ExprID, site int) ([]F, int) {
	n, kids := c.s.Expr(h), c.s.Kids(h)
	if n.Kind != rtl.OpApp {
		c.buf = append(c.buf, c.leaf(h))
		return c.buf[len(c.buf)-1:], site + c.s.SwapSites(h)
	}
	if len(kids) == 1 {
		forms, next := c.rec(kids[0], site)
		start := len(c.buf)
		var none F
		for _, k := range forms {
			c.buf = append(c.buf, c.join(n, site, k, none, false))
		}
		return c.buf[start:], next
	}
	self := site
	if c.s.SwapSite(h) {
		site++
	}
	ls, mid := c.rec(kids[0], site)
	rs, next := c.rec(kids[1], mid)
	start := len(c.buf)
	for _, l := range ls {
		for _, r := range rs {
			c.buf = append(c.buf, c.join(n, self, l, r, false))
			if n.Op.Commutative() {
				c.buf = append(c.buf, c.join(n, self, l, r, true))
			}
			if len(c.buf)-start > c.limit {
				c.buf = c.buf[:start+c.limit]
				return c.buf[start:], next
			}
		}
	}
	return c.buf[start:], next
}

// group identifies the commutation class of a transfer: its destination,
// destination address and the class of its source.
type group struct {
	dest     string
	destPort bool
	addr     rtl.ExprID
	class    uint32
}

// groupOf returns the group of t's transfer with a source of class class.
func groupOf(t *rtl.Template, class uint32) group {
	return group{t.Dest, t.DestPort, t.DestAddr, class}
}

// ruleVariants applies each rule, in order, at every node of tree root of
// store s, matching into b, and passes each variant's handle to emit (one
// application per variant, at most limit per rule).
func ruleVariants(s *rtl.Store, root rtl.ExprID, rules []Rule, limit int, b *Bindings, emit func(rtl.ExprID)) {
	var r *Rule
	var pos, n int // the pre-order position of the node walk visits; r's variants
	var walk func(h rtl.ExprID)
	walk = func(h rtl.ExprID) {
		if n >= limit {
			return
		}
		at := pos
		pos++
		if r.HW.Match(s, h, b) && (r.MapConsts == nil || b.mapConsts(r)) {
			if repl, err := r.Prog.Instantiate(s, b, s.Expr(h).Width); err == nil {
				emit(s.ReplaceAt(root, at, repl))
				n++
			}
		}
		for _, k := range s.Kids(h) {
			walk(k)
		}
	}
	for i := range rules {
		r, pos, n = &rules[i], 0, 0
		walk(root)
	}
}

// mapConsts replaces b's constant bindings by those r.MapConsts derives
// from them and reports whether r accepts the match.
func (b *Bindings) mapConsts(r *Rule) bool {
	mapped, ok := r.MapConsts(b.Const)
	b.Const = mapped
	return ok
}
