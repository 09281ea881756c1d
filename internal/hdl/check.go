package hdl

import (
	"errors"

	"repro/internal/rtl"
)

// Check resolves names, infers bit widths and validates model m in place.
// It returns an error joining every diagnostic found.
func Check(m *Model) error {
	c := &checker{m: m}
	c.buildTables()
	c.checkModules()
	c.checkParts()
	c.checkBusesAndPorts()
	c.checkConnects()
	if len(c.errs) > 0 {
		return errors.Join(c.errs...)
	}
	return nil
}

type checker struct {
	m    *Model
	errs []error
}

func (c *checker) errorf(pos Pos, format string, args ...interface{}) {
	c.errs = append(c.errs, errf(pos, format, args...))
}

func (c *checker) buildTables() {
	m := c.m
	m.ConstByName = make(map[string]int64)
	for _, d := range m.Consts {
		if _, dup := m.ConstByName[d.Name]; dup {
			c.errorf(d.Pos, "duplicate constant %q", d.Name)
			continue
		}
		m.ConstByName[d.Name] = d.Value
	}
	m.ModuleByName = make(map[string]*Module)
	for _, mod := range m.Modules {
		if _, dup := m.ModuleByName[mod.Name]; dup {
			c.errorf(mod.Pos, "duplicate module %q", mod.Name)
			continue
		}
		m.ModuleByName[mod.Name] = mod
	}
	m.PartByName = make(map[string]*Part)
	for _, p := range m.Parts {
		if _, dup := m.PartByName[p.Name]; dup {
			c.errorf(p.Pos, "duplicate part %q", p.Name)
			continue
		}
		m.PartByName[p.Name] = p
	}
	m.BusByName = make(map[string]*BusDecl)
	for _, b := range m.Buses {
		if _, dup := m.BusByName[b.Name]; dup {
			c.errorf(b.Pos, "duplicate bus %q", b.Name)
			continue
		}
		m.BusByName[b.Name] = b
	}
	m.PortByName = make(map[string]*PrimaryPort)
	for _, p := range m.Ports {
		if _, dup := m.PortByName[p.Name]; dup {
			c.errorf(p.Pos, "duplicate primary port %q", p.Name)
			continue
		}
		m.PortByName[p.Name] = p
	}
}

// resolveWidth evaluates a width expression (number or constant name).
func (c *checker) resolveWidth(e Expr, what string) int {
	switch w := e.(type) {
	case *NumExpr:
		if w.Val <= 0 || w.Val > 64 {
			c.errorf(w.Pos, "%s width %d out of range 1..64", what, w.Val)
			return 1
		}
		return int(w.Val)
	case *IdentExpr:
		v, ok := c.m.ConstByName[w.Name]
		if !ok {
			c.errorf(w.Pos, "%s width: unknown constant %q", what, w.Name)
			return 1
		}
		if v <= 0 || v > 64 {
			c.errorf(w.Pos, "%s width %d (constant %q) out of range 1..64", what, v, w.Name)
			return 1
		}
		return int(v)
	}
	c.errorf(e.ExprPos(), "%s width must be a number or constant", what)
	return 1
}

// resolveSize evaluates a storage size expression.
func (c *checker) resolveSize(e Expr) int {
	switch s := e.(type) {
	case *NumExpr:
		if s.Val <= 0 || s.Val > 1<<24 {
			c.errorf(s.Pos, "storage size %d out of range", s.Val)
			return 1
		}
		return int(s.Val)
	case *IdentExpr:
		v, ok := c.m.ConstByName[s.Name]
		if !ok {
			c.errorf(s.Pos, "storage size: unknown constant %q", s.Name)
			return 1
		}
		if v <= 0 || v > 1<<24 {
			c.errorf(s.Pos, "storage size %d (constant %q) out of range", v, s.Name)
			return 1
		}
		return int(v)
	}
	c.errorf(e.ExprPos(), "storage size must be a number or constant")
	return 1
}

func (c *checker) checkModules() {
	for _, mod := range c.m.Modules {
		mod.PortByName = make(map[string]*ModPort)
		for _, p := range mod.Ports {
			if _, dup := mod.PortByName[p.Name]; dup {
				c.errorf(p.Pos, "module %s: duplicate port %q", mod.Name, p.Name)
				continue
			}
			p.Width = c.resolveWidth(p.WidthRaw, "port "+p.Name)
			mod.PortByName[p.Name] = p
		}
		mod.VarByName = make(map[string]*VarDecl)
		for _, v := range mod.Vars {
			if _, dup := mod.VarByName[v.Name]; dup {
				c.errorf(v.Pos, "module %s: duplicate var %q", mod.Name, v.Name)
				continue
			}
			if _, clash := mod.PortByName[v.Name]; clash {
				c.errorf(v.Pos, "module %s: var %q collides with a port", mod.Name, v.Name)
				continue
			}
			v.Width = c.resolveWidth(v.WidthRaw, "var "+v.Name)
			v.Size = 1
			if v.SizeRaw != nil {
				v.Size = c.resolveSize(v.SizeRaw)
			}
			mod.VarByName[v.Name] = v
		}
		c.checkBehavior(mod)
	}
}

func (c *checker) checkBehavior(mod *Module) {
	outAssigned := make(map[string]bool)
	for _, st := range mod.Stmts {
		lv := st.LHS
		if port, ok := mod.PortByName[lv.Name]; ok {
			if port.Dir != DirOut {
				c.errorf(lv.Pos, "module %s: cannot assign to input port %q", mod.Name, lv.Name)
				continue
			}
			if lv.Index != nil {
				c.errorf(lv.Pos, "module %s: bit-sliced port assignment not supported", mod.Name)
				continue
			}
			if st.Guard != nil {
				c.errorf(st.Pos, "module %s: output port %q must be assigned unconditionally (use a bus for tristate)", mod.Name, lv.Name)
			}
			if outAssigned[lv.Name] {
				c.errorf(st.Pos, "module %s: output port %q assigned more than once", mod.Name, lv.Name)
			}
			outAssigned[lv.Name] = true
			lv.Port = port
			c.inferExpr(st.RHS, mod, port.Width)
		} else if v, ok := mod.VarByName[lv.Name]; ok {
			lv.Var = v
			if v.Size > 1 {
				if lv.Index == nil {
					c.errorf(lv.Pos, "module %s: array var %q needs an index", mod.Name, lv.Name)
				} else {
					c.inferExpr(lv.Index, mod, -1)
				}
			} else if lv.Index != nil {
				c.errorf(lv.Pos, "module %s: scalar var %q cannot be indexed", mod.Name, lv.Name)
			}
			c.inferExpr(st.RHS, mod, v.Width)
		} else {
			c.errorf(lv.Pos, "module %s: unknown assignment target %q", mod.Name, lv.Name)
			continue
		}
		if st.Guard != nil {
			if w := c.inferExpr(st.Guard, mod, 1); w != 1 && w != 0 {
				c.errorf(st.Guard.ExprPos(), "module %s: guard must be 1 bit wide, got %d", mod.Name, w)
			}
		}
	}
	// Every output port of a module with a behavior must be driven.
	if len(mod.Stmts) > 0 {
		for _, p := range mod.Ports {
			if p.Dir == DirOut && !outAssigned[p.Name] {
				c.errorf(p.Pos, "module %s: output port %q never assigned", mod.Name, p.Name)
			}
		}
	}
}

// inferExpr type-checks e in module scope (mod non-nil) or connect scope
// (mod nil), with an expected width (-1 to infer).  It returns the width
// (0 on error paths after reporting).
func (c *checker) inferExpr(e Expr, mod *Module, expected int) int {
	switch x := e.(type) {
	case *NumExpr:
		if expected > 0 {
			if !fitsWidth(x.Val, expected) {
				c.errorf(x.Pos, "literal %d does not fit in %d bits", x.Val, expected)
			}
			x.Width = expected
		} else {
			x.Width = minWidth(x.Val)
		}
		return x.Width

	case *IdentExpr:
		return c.inferIdent(x, mod, expected)

	case *PortSelExpr:
		if mod != nil {
			c.errorf(x.Pos, "part.port reference %s not allowed inside a module behavior", x)
			return 0
		}
		return c.inferPortSel(x)

	case *IndexExpr:
		return c.inferIndex(x, mod, expected)

	case *BinExpr:
		return c.inferBin(x, mod, expected)

	case *UnExpr:
		w := c.inferExpr(x.X, mod, expected)
		x.Width = w
		return w

	case *CaseExpr:
		return c.inferCase(x, mod, expected)
	}
	c.errorf(e.ExprPos(), "internal: unknown expression node %T", e)
	return 0
}

func (c *checker) inferIdent(x *IdentExpr, mod *Module, expected int) int {
	if mod != nil {
		if p, ok := mod.PortByName[x.Name]; ok {
			if p.Dir != DirIn {
				c.errorf(x.Pos, "module %s: cannot read output port %q", mod.Name, x.Name)
				return 0
			}
			x.Port = p
			x.Width = p.Width
			return p.Width
		}
		if v, ok := mod.VarByName[x.Name]; ok {
			if v.Size > 1 {
				c.errorf(x.Pos, "array var %q needs an index", x.Name)
				return 0
			}
			x.Var = v
			x.Width = v.Width
			return v.Width
		}
	} else {
		if b, ok := c.m.BusByName[x.Name]; ok {
			x.Bus = b
			x.Width = b.Width
			return b.Width
		}
		if pp, ok := c.m.PortByName[x.Name]; ok {
			if pp.Dir != DirIn {
				c.errorf(x.Pos, "cannot read primary output port %q", x.Name)
				return 0
			}
			x.Primary = pp
			x.Width = pp.Width
			return pp.Width
		}
	}
	if v, ok := c.m.ConstByName[x.Name]; ok {
		x.Const = &ConstDecl{Name: x.Name, Value: v}
		if expected > 0 {
			if !fitsWidth(v, expected) {
				c.errorf(x.Pos, "constant %s=%d does not fit in %d bits", x.Name, v, expected)
			}
			x.Width = expected
		} else {
			x.Width = minWidth(v)
		}
		return x.Width
	}
	c.errorf(x.Pos, "unknown identifier %q", x.Name)
	return 0
}

func (c *checker) inferPortSel(x *PortSelExpr) int {
	part, ok := c.m.PartByName[x.Part]
	if !ok {
		c.errorf(x.Pos, "unknown part %q", x.Part)
		return 0
	}
	x.PartRef = part
	mod, ok := c.m.ModuleByName[part.ModName]
	if !ok {
		return 0 // reported by checkParts
	}
	p, ok := mod.PortByName[x.Port]
	if !ok {
		c.errorf(x.Pos, "part %s (module %s) has no port %q", x.Part, mod.Name, x.Port)
		return 0
	}
	if p.Dir != DirOut {
		c.errorf(x.Pos, "connect source %s.%s is not an output port", x.Part, x.Port)
		return 0
	}
	x.PortRef = p
	x.Width = p.Width
	return p.Width
}

func (c *checker) inferIndex(x *IndexExpr, mod *Module, expected int) int {
	// Array var cell index (module scope only).
	if id, ok := x.X.(*IdentExpr); ok && mod != nil {
		if v, okv := mod.VarByName[id.Name]; okv && v.Size > 1 {
			if x.Lo != nil {
				c.errorf(x.Pos, "storage %q: ranged cell access not supported", id.Name)
				return 0
			}
			id.Var = v
			id.Width = v.Width
			c.inferExpr(x.Hi, mod, -1)
			x.Width = v.Width
			x.IsSlice = false
			return v.Width
		}
	}
	// Otherwise: a constant bit slice of a port/bus/primary reference.
	baseW := c.inferExpr(x.X, mod, -1)
	if baseW == 0 {
		return 0
	}
	hi, okHi := c.constVal(x.Hi)
	lo := hi
	okLo := true
	if x.Lo != nil {
		lo, okLo = c.constVal(x.Lo)
	}
	if !okHi || !okLo {
		c.errorf(x.Pos, "bit-slice bounds must be constants")
		return 0
	}
	if lo < 0 || hi < lo || int(hi) >= baseW {
		c.errorf(x.Pos, "bit slice [%d:%d] out of range for width %d", hi, lo, baseW)
		return 0
	}
	x.IsSlice = true
	x.SliceHi, x.SliceLo = int(hi), int(lo)
	x.Width = int(hi-lo) + 1
	return x.Width
}

// constVal evaluates a constant expression (number or named constant).
func (c *checker) constVal(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *NumExpr:
		return x.Val, true
	case *IdentExpr:
		if v, ok := c.m.ConstByName[x.Name]; ok {
			return v, true
		}
	}
	return 0, false
}

func isLiteral(e Expr) bool {
	switch x := e.(type) {
	case *NumExpr:
		return true
	case *IdentExpr:
		return x.Port == nil && x.Var == nil && x.Bus == nil && x.Primary == nil
	}
	return false
}

func (c *checker) inferBin(x *BinExpr, mod *Module, expected int) int {
	switch x.Op {
	case rtl.OpEq, rtl.OpNe, rtl.OpLt, rtl.OpLe, rtl.OpGt, rtl.OpGe:
		// Operands agree among themselves; result is 1 bit.
		var w int
		if isLiteral(x.X) && !isLiteral(x.Y) {
			w = c.inferExpr(x.Y, mod, -1)
			c.inferExpr(x.X, mod, w)
		} else {
			w = c.inferExpr(x.X, mod, -1)
			c.inferExpr(x.Y, mod, w)
		}
		if yw := x.Y.ExprWidth(); w != 0 && yw != 0 && yw != w {
			c.errorf(x.Pos, "comparison operand widths differ: %d vs %d", w, yw)
		}
		x.Width = 1
		return 1
	case rtl.OpShl, rtl.OpShr, rtl.OpAshr:
		w := c.inferExpr(x.X, mod, expected)
		c.inferExpr(x.Y, mod, -1)
		x.Width = w
		return w
	default:
		// Width-preserving arithmetic/logic.
		var w int
		if isLiteral(x.X) && !isLiteral(x.Y) {
			w = c.inferExpr(x.Y, mod, expected)
			c.inferExpr(x.X, mod, w)
		} else {
			w = c.inferExpr(x.X, mod, expected)
			c.inferExpr(x.Y, mod, w)
		}
		if yw := x.Y.ExprWidth(); w != 0 && yw != 0 && yw != w {
			c.errorf(x.Pos, "operand widths differ: %d vs %d", w, yw)
		}
		x.Width = w
		return w
	}
}

func (c *checker) inferCase(x *CaseExpr, mod *Module, expected int) int {
	selW := c.inferExpr(x.Sel, mod, -1)
	seen := make(map[int64]bool)
	w := expected
	for i := range x.Alts {
		a := &x.Alts[i]
		if seen[a.Val] {
			c.errorf(x.Pos, "duplicate CASE alternative %d", a.Val)
		}
		seen[a.Val] = true
		if selW > 0 && !fitsWidth(a.Val, selW) {
			c.errorf(x.Pos, "CASE alternative %d does not fit selector width %d", a.Val, selW)
		}
		bw := c.inferExpr(a.Body, mod, w)
		if w <= 0 {
			w = bw
		} else if bw != 0 && bw != w {
			c.errorf(a.Body.ExprPos(), "CASE branch width %d differs from %d", bw, w)
		}
	}
	if x.Else != nil {
		bw := c.inferExpr(x.Else, mod, w)
		if w <= 0 {
			w = bw
		} else if bw != 0 && bw != w {
			c.errorf(x.Else.ExprPos(), "ELSE branch width %d differs from %d", bw, w)
		}
	}
	if len(x.Alts) == 0 {
		c.errorf(x.Pos, "CASE with no alternatives")
	}
	if w < 0 {
		w = 0
	}
	x.Width = w
	return w
}

func (c *checker) checkParts() {
	var insnParts, pcParts int
	for _, p := range c.m.Parts {
		mod, ok := c.m.ModuleByName[p.ModName]
		if !ok {
			c.errorf(p.Pos, "part %s: unknown module %q", p.Name, p.ModName)
			continue
		}
		p.Module = mod
		if _, clash := c.m.BusByName[p.Name]; clash {
			c.errorf(p.Pos, "part %s collides with a bus name", p.Name)
		}
		switch p.Flag {
		case FlagInstruction:
			insnParts++
			outs := 0
			for _, mp := range mod.Ports {
				if mp.Dir == DirOut {
					outs++
				}
			}
			if outs != 1 {
				c.errorf(p.Pos, "instruction part %s: module %s must have exactly one output port (the instruction word), has %d", p.Name, mod.Name, outs)
			}
			if !mod.IsSequential() {
				c.errorf(p.Pos, "instruction part %s: module %s must contain storage", p.Name, mod.Name)
			}
		case FlagMode, FlagPC:
			if p.Flag == FlagPC {
				pcParts++
			}
			if !mod.IsSequential() {
				c.errorf(p.Pos, "part %s (%s): module %s must contain storage", p.Name, p.Flag, mod.Name)
			}
		}
	}
	if insnParts != 1 {
		pos := Pos{1, 1}
		c.errorf(pos, "model must declare exactly one INSTRUCTION part, found %d", insnParts)
	}
	if pcParts > 1 {
		c.errorf(Pos{1, 1}, "model declares %d PC parts, at most 1 allowed", pcParts)
	}
}

func (c *checker) checkBusesAndPorts() {
	for _, b := range c.m.Buses {
		b.Width = c.resolveWidth(b.WidthRaw, "bus "+b.Name)
	}
	for _, p := range c.m.Ports {
		p.Width = c.resolveWidth(p.WidthRaw, "primary port "+p.Name)
	}
}

func (c *checker) checkConnects() {
	driven := make(map[string]int) // sink key -> count (buses may repeat)
	for _, conn := range c.m.Connects {
		var sinkWidth int
		var isBus bool
		if conn.SinkPart != "" {
			part, ok := c.m.PartByName[conn.SinkPart]
			if !ok {
				c.errorf(conn.Pos, "connect: unknown part %q", conn.SinkPart)
				continue
			}
			if part.Module == nil {
				continue
			}
			port, ok := part.Module.PortByName[conn.SinkPort]
			if !ok {
				c.errorf(conn.Pos, "connect: part %s has no port %q", conn.SinkPart, conn.SinkPort)
				continue
			}
			if port.Dir != DirIn {
				c.errorf(conn.Pos, "connect: %s is not an input port", conn.SinkName())
				continue
			}
			sinkWidth = port.Width
		} else if b, ok := c.m.BusByName[conn.SinkPort]; ok {
			sinkWidth = b.Width
			isBus = true
		} else if pp, ok := c.m.PortByName[conn.SinkPort]; ok {
			if pp.Dir != DirOut {
				c.errorf(conn.Pos, "connect: primary port %q is not an output", conn.SinkPort)
				continue
			}
			sinkWidth = pp.Width
		} else {
			c.errorf(conn.Pos, "connect: unknown sink %q", conn.SinkPort)
			continue
		}

		if conn.When != nil && !isBus {
			c.errorf(conn.Pos, "connect: WHEN is only allowed on bus drivers (sink %s)", conn.SinkName())
		}
		key := conn.SinkName()
		driven[key]++
		if !isBus && driven[key] > 1 {
			c.errorf(conn.Pos, "connect: sink %s driven more than once (declare a BUS for tristate)", key)
		}

		if w := c.inferExpr(conn.Src, nil, sinkWidth); w != 0 && w != sinkWidth {
			c.errorf(conn.Pos, "connect: width mismatch at %s: sink %d bits, source %d bits", key, sinkWidth, w)
		}
		if conn.When != nil {
			if w := c.inferExpr(conn.When, nil, 1); w != 1 && w != 0 {
				c.errorf(conn.When.ExprPos(), "WHEN condition must be 1 bit wide, got %d", w)
			}
		}
	}
	// Every input port of every part must be driven.
	for _, p := range c.m.Parts {
		if p.Module == nil {
			continue
		}
		for _, mp := range p.Module.Ports {
			if mp.Dir == DirIn && driven[p.Name+"."+mp.Name] == 0 {
				c.errorf(p.Pos, "input port %s.%s is never driven", p.Name, mp.Name)
			}
		}
	}
}

// fitsWidth reports whether v is representable in w bits, allowing both
// unsigned and two's-complement signed interpretations.
func fitsWidth(v int64, w int) bool {
	if w >= 64 {
		return true
	}
	if v >= 0 {
		return v < 1<<uint(w)
	}
	return v >= -(1 << uint(w-1))
}

// minWidth returns the minimal width able to hold v (at least 1).
func minWidth(v int64) int {
	if v < 0 {
		v = -v - 1
		w := 1
		for v > 0 {
			w++
			v >>= 1
		}
		return w
	}
	w := 1
	for v > 1 {
		w++
		v >>= 1
	}
	if v == 1 && w == 1 {
		return 1
	}
	return w
}
