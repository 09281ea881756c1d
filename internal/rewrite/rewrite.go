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

// Bindings holds the result of a successful match.
type Bindings struct {
	Sub   map[string]*rtl.Expr // PVar bindings
	Const map[string]int64     // PAnyConst bindings
}

// Match attempts to match p against e, returning bindings on success.
// Extension probes every rule at every template node, and most probes fail
// on the pattern's shape, so every node's kind, operator, arity and
// constant is checked before any bindings are allocated.
func (p *Pattern) Match(e *rtl.Expr) (*Bindings, bool) {
	if !p.shapeMatches(e) {
		return nil, false
	}
	b := &Bindings{Sub: make(map[string]*rtl.Expr), Const: make(map[string]int64)}
	if p.match(e, b) {
		return b, true
	}
	return nil, false
}

// shapeMatches reports whether every node of p can match the node of e at
// its position; it is the binding-free part of match.
func (p *Pattern) shapeMatches(e *rtl.Expr) bool {
	if !p.rootMatches(e) {
		return false
	}
	// Only an operator pattern has kids, and rootMatches checked that e
	// has as many.
	for i, k := range p.Kids {
		if !k.shapeMatches(e.Kids[i]) {
			return false
		}
	}
	return true
}

// rootMatches reports whether p's root node can match e; it is the
// binding-free part of match at the root.
func (p *Pattern) rootMatches(e *rtl.Expr) bool {
	switch p.Kind {
	case PVar:
		return true
	case PConst:
		return e.Kind == rtl.Const && e.Val == p.Val
	case PAnyConst:
		return e.Kind == rtl.Const
	case POp:
		return e.Kind == rtl.OpApp && e.Op == p.Op && len(e.Kids) == len(p.Kids)
	}
	return false
}

func (p *Pattern) match(e *rtl.Expr, b *Bindings) bool {
	if !p.rootMatches(e) {
		return false
	}
	switch p.Kind {
	case PVar:
		if prev, ok := b.Sub[p.Name]; ok {
			return prev.Equal(e)
		}
		b.Sub[p.Name] = e
	case PAnyConst:
		if prev, ok := b.Const[p.Name]; ok {
			return prev == e.Val
		}
		b.Const[p.Name] = e.Val
	case POp:
		for i, k := range p.Kids {
			if !k.match(e.Kids[i], b) {
				return false
			}
		}
	}
	return true
}

// Instantiate builds an expression from p under bindings, with the given
// result width.  Constants bound by name are looked up in b.Const.
func (p *Pattern) Instantiate(b *Bindings, width int) (*rtl.Expr, error) {
	switch p.Kind {
	case PVar:
		e, ok := b.Sub[p.Name]
		if !ok {
			return nil, fmt.Errorf("rewrite: unbound variable $%s", p.Name)
		}
		return e, nil
	case PConst:
		return rtl.NewConst(p.Val, width), nil
	case PAnyConst:
		v, ok := b.Const[p.Name]
		if !ok {
			return nil, fmt.Errorf("rewrite: unbound constant #%s", p.Name)
		}
		return rtl.NewConst(v, width), nil
	case POp:
		kids := make([]*rtl.Expr, len(p.Kids))
		for i, k := range p.Kids {
			kw := width
			if isComparison(p.Op) && width == 1 {
				// Comparison operands keep their own widths via bindings;
				// fresh constants inherit the sibling width below.
				kw = siblingWidth(p.Kids, i, b, width)
			}
			kid, err := k.Instantiate(b, kw)
			if err != nil {
				return nil, err
			}
			kids[i] = kid
		}
		return rtl.NewOp(p.Op, width, kids...), nil
	}
	return nil, fmt.Errorf("rewrite: bad pattern kind")
}

func isComparison(op rtl.Op) bool {
	switch op {
	case rtl.OpEq, rtl.OpNe, rtl.OpLt, rtl.OpLe, rtl.OpGt, rtl.OpGe:
		return true
	}
	return false
}

func siblingWidth(kids []*Pattern, i int, b *Bindings, fallback int) int {
	for j, k := range kids {
		if j == i {
			continue
		}
		if k.Kind == PVar {
			if e, ok := b.Sub[k.Name]; ok {
				return e.Width
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
	// hardware-side ones (e.g. c = 2^k for shift-to-multiply).  It returns
	// false when the match should be rejected.
	MapConsts func(hw map[string]int64) (map[string]int64, bool)
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
			MapConsts: func(hw map[string]int64) (map[string]int64, bool) {
				k := hw["k"]
				if k < 0 || k > 30 {
					return nil, false
				}
				return map[string]int64{"c": 1 << uint(k)}, true
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
	variantsOf := func(t *rtl.Template) *sourceVariants {
		v := &memo[t.SrcID()]
		if !v.ready {
			v.derive(store, t, opts)
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
	masks := commuter[uint64]{limit: opts.MaxVariantsPerTemplate,
		leaf: func(*rtl.Expr) uint64 { return 0 },
		join: func(_ *rtl.Expr, site int, l, r uint64, swapped bool) uint64 {
			if swapped {
				return l | r | 1<<uint(site)
			}
			return l | r
		}}
	trees := commuter[*rtl.Expr]{limit: opts.MaxVariantsPerTemplate,
		leaf: func(e *rtl.Expr) *rtl.Expr { return e },
		join: func(n *rtl.Expr, _ int, l, r *rtl.Expr, swapped bool) *rtl.Expr {
			switch {
			case len(n.Kids) == 1:
				return rtl.NewOp(n.Op, n.Width, l)
			case swapped:
				return rtl.NewOp(n.Op, n.Width, r, l)
			}
			return rtl.NewOp(n.Op, n.Width, l, r)
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
				for _, tree := range trees.forms(t.Src) {
					if id := store.Intern(tree); id != t.SrcID() {
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
	// rules are the interned rule variants, in generation order and with
	// repeats, minus the source itself; ruleClasses are the classes of
	// those with swap sites.
	rules       []rtl.ExprID
	ruleClasses []uint32
}

// derive fills v from t's source.
func (v *sourceVariants) derive(store *rtl.Store, t *rtl.Template, opts Options) {
	v.ready = true
	if opts.Commutativity {
		if v.sites = t.Src.SwapSites(); v.sites > 0 {
			v.class, v.distinct = t.Src.ClassHash()
			v.distinct = v.distinct && v.sites <= 64
		}
	}
	for _, tree := range ruleVariants(t.Src, opts.Rules, opts.MaxVariantsPerTemplate) {
		if id := store.Intern(tree); id != t.SrcID() {
			v.rules = append(v.rules, id)
			if opts.Commutativity && tree.SwapSites() > 0 {
				c, _ := tree.ClassHash()
				v.ruleClasses = append(v.ruleClasses, c)
			}
		}
	}
}

// commuter enumerates commuted forms, of some representation F, into a
// buffer it reuses: a swap mask per form, or the swapped tree.
type commuter[F any] struct {
	limit int
	// leaf makes the form of a subtree swaps do not enter.  join makes an
	// operator's form from its operands' forms (l alone for a unary
	// operator); site numbers the operator among the swap sites when it
	// is one, and swapped asks for its operands exchanged.
	leaf func(*rtl.Expr) F
	join func(n *rtl.Expr, site int, l, r F, swapped bool) F
	buf  []F
}

// forms returns e's commuted forms in generation order, e itself first:
// every combination of operand swaps at the swap sites reachable from the
// root through operators, at most limit of them.  The result is valid
// until the next call.
func (c *commuter[F]) forms(e *rtl.Expr) []F {
	c.buf = c.buf[:0]
	forms, _ := c.rec(e, 0)
	return forms
}

// rec appends the forms of n, whose first swap site is site, to the
// buffer and returns them with the site after n's last.
func (c *commuter[F]) rec(n *rtl.Expr, site int) ([]F, int) {
	if n.Kind != rtl.OpApp {
		c.buf = append(c.buf, c.leaf(n))
		return c.buf[len(c.buf)-1:], site + n.SwapSites()
	}
	if len(n.Kids) == 1 {
		kids, next := c.rec(n.Kids[0], site)
		start := len(c.buf)
		var none F
		for _, k := range kids {
			c.buf = append(c.buf, c.join(n, site, k, none, false))
		}
		return c.buf[start:], next
	}
	self := site
	if n.SwapSite() {
		site++
	}
	ls, mid := c.rec(n.Kids[0], site)
	rs, next := c.rec(n.Kids[1], mid)
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
	return group{t.Dest, t.DestPort, t.AddrID(), class}
}

// ruleVariants applies each rule, in order, at every node of e (one
// application per variant, at most limit per rule).
func ruleVariants(e *rtl.Expr, rules []Rule, limit int) []*rtl.Expr {
	var out []*rtl.Expr
	// replaceAt returns n with the node at path replaced by repl.  It reads
	// path only while it runs and keeps none of it, so walk can share one
	// path stack across the whole traversal.
	var replaceAt func(n *rtl.Expr, path []int, repl *rtl.Expr) *rtl.Expr
	replaceAt = func(n *rtl.Expr, path []int, repl *rtl.Expr) *rtl.Expr {
		if len(path) == 0 {
			return repl
		}
		c := *n
		c.Kids = append([]*rtl.Expr(nil), n.Kids...)
		c.Kids[path[0]] = replaceAt(n.Kids[path[0]], path[1:], repl)
		return &c
	}
	path := make([]int, 0, e.Depth())
	var r *Rule
	start := 0 // out[start:] are r's variants
	var walk func(n *rtl.Expr)
	walk = func(n *rtl.Expr) {
		if len(out)-start >= limit {
			return
		}
		if b, ok := r.HW.Match(n); ok {
			accept := true
			if r.MapConsts != nil {
				mapped, okm := r.MapConsts(b.Const)
				if !okm {
					accept = false
				} else {
					b.Const = mapped
				}
			}
			if accept {
				if repl, err := r.Prog.Instantiate(b, n.Width); err == nil {
					out = append(out, replaceAt(e, path, repl))
				}
			}
		}
		for i, k := range n.Kids {
			path = append(path, i)
			walk(k)
			path = path[:len(path)-1]
		}
	}
	for i := range rules {
		r, start = &rules[i], len(out)
		walk(e)
	}
	return out
}
