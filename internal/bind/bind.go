// Package bind assigns program variables to target storage resources.
//
// The paper assumes all primary source program inputs and variables are a
// priori bound to memory or register resources (section 3.1).  This
// implementation lays program variables out frame-style in the target's
// data memory and reserves a scratch region for spill cells.  On targets
// with a second addressable memory (e.g. a coefficient ROM beside the data
// RAM, as in Harvard-style DSPs), constant arrays — initialized and never
// written — are placed there alternately, which is what lets dual-bus
// multiply-accumulate routes be selected.  It also lowers IR
// expressions/assignments to RT-level expression trees whose leaves are
// storage reads: the exact subject trees code selection covers.  The trees
// are handles into the binding's expression store, which gives equal
// subtrees of a program one handle.
package bind

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/netlist"
	"repro/internal/rtl"
)

// ScratchCells is the preferred number of spill cells reserved beyond
// program variables; tiny memories get fewer (see MinScratchCells).
const ScratchCells = 16

// MinScratchCells is the minimum spill region size.
const MinScratchCells = 2

// Region describes one addressable memory used for variables.
type Region struct {
	Memory    string // qualified storage name
	Width     int    // cell width
	AddrWidth int    // width used for address constants
	Size      int    // cell count
}

// Placement locates one variable.
type Placement struct {
	Storage string
	Addr    int
}

// Binding maps program variables to cells of target memories.
type Binding struct {
	// Primary is the main (writable) data memory; scratch cells live here.
	Primary Region
	// ROM is the optional second memory for constant arrays (nil when the
	// target has a single data memory).
	ROM *Region

	// Place maps variable names to their location.
	Place map[string]Placement
	// ScratchBase is the first spill cell (in Primary); ScratchLen cells
	// follow.
	ScratchBase int
	ScratchLen  int

	// Width is the data word width (Primary cell width).
	Width int
	// Memory and AddrWidth mirror Primary for convenience.
	Memory    string
	AddrWidth int

	decls map[string]*ir.Decl
	exprs *rtl.Store
}

// Bind lays out the program's variables.  The primary memory is the
// largest writable addressable data storage; if another addressable data
// storage exists, constant arrays alternate between it and the primary.
// The program's trees are lowered into a new store.
func Bind(prog *ir.Program, net *netlist.Netlist) (*Binding, error) {
	return BindStore(prog, net, new(rtl.Store))
}

// BindStore is Bind lowering into the store s, which a caller compiling
// one program after another resets and reuses.
func BindStore(prog *ir.Program, net *netlist.Netlist, s *rtl.Store) (*Binding, error) {
	var addressable []*netlist.Storage
	for _, s := range net.DataStorages() {
		if s.Mode || s.PC || s.Size() <= 1 {
			continue
		}
		addressable = append(addressable, s)
	}
	sort.Slice(addressable, func(i, j int) bool {
		if addressable[i].Size() != addressable[j].Size() {
			return addressable[i].Size() > addressable[j].Size()
		}
		return addressable[i].QName() < addressable[j].QName()
	})
	var primary *netlist.Storage
	for _, s := range addressable {
		if s.Writable() {
			primary = s
			break
		}
	}
	if primary == nil {
		return nil, fmt.Errorf("bind: target %s has no writable data memory", net.Name)
	}
	var second *netlist.Storage
	for _, s := range addressable {
		if s != primary {
			second = s
			break
		}
	}

	b := &Binding{
		Primary: Region{Memory: primary.QName(), Width: primary.Width(),
			AddrWidth: addrWidth(primary.Size()), Size: primary.Size()},
		Place: make(map[string]Placement),
		decls: make(map[string]*ir.Decl),
		exprs: s,
	}
	b.Memory = b.Primary.Memory
	b.Width = b.Primary.Width
	b.AddrWidth = b.Primary.AddrWidth
	if second != nil {
		b.ROM = &Region{Memory: second.QName(), Width: second.Width(),
			AddrWidth: addrWidth(second.Size()), Size: second.Size()}
	}

	written := writtenVars(prog.Body)
	nextPrimary, nextROM := 0, 0
	toROM := true // alternate constant arrays, ROM first
	for _, d := range prog.Decls {
		b.decls[d.Name] = d
		constArray := d.IsArray() && len(d.Init) > 0 && !written[d.Name]
		if constArray && b.ROM != nil && toROM && nextROM+d.Cells() <= b.ROM.Size {
			b.Place[d.Name] = Placement{Storage: b.ROM.Memory, Addr: nextROM}
			nextROM += d.Cells()
			toROM = false
			continue
		}
		if constArray {
			toROM = true
		}
		b.Place[d.Name] = Placement{Storage: b.Primary.Memory, Addr: nextPrimary}
		nextPrimary += d.Cells()
	}
	b.ScratchBase = nextPrimary
	b.ScratchLen = ScratchCells
	if avail := b.Primary.Size - nextPrimary; avail < b.ScratchLen {
		b.ScratchLen = avail
	}
	if b.ScratchLen < MinScratchCells {
		return nil, fmt.Errorf("bind: program needs %d cells (+%d scratch) but %s has only %d",
			nextPrimary, MinScratchCells, b.Primary.Memory, b.Primary.Size)
	}
	return b, nil
}

// writtenVars collects the names assigned anywhere in the program.
func writtenVars(stmts []ir.Stmt) map[string]bool {
	out := make(map[string]bool)
	var walk func(stmts []ir.Stmt)
	walk = func(stmts []ir.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *ir.Assign:
				out[st.LHS.Name] = true
			case *ir.For:
				walk(st.Body)
			case *ir.If:
				walk(st.Then)
				walk(st.Else)
			case *ir.While:
				walk(st.Body)
			}
		}
	}
	walk(stmts)
	return out
}

func addrWidth(size int) int {
	w := 1
	for (1 << uint(w)) < size {
		w++
	}
	return w
}

// regionOf returns the region holding the given storage.
func (b *Binding) regionOf(storage string) Region {
	if b.ROM != nil && b.ROM.Memory == storage {
		return *b.ROM
	}
	return b.Primary
}

// AddrOf returns the placement of a variable.
func (b *Binding) AddrOf(name string) (Placement, bool) {
	p, ok := b.Place[name]
	return p, ok
}

// Exprs returns the store the lowered trees are handles into.
func (b *Binding) Exprs() *rtl.Store { return b.exprs }

// LowerExpr converts an IR expression into an RT-level subject tree at the
// target word width.
func (b *Binding) LowerExpr(e ir.Expr) (rtl.ExprID, error) {
	s := b.exprs
	switch x := e.(type) {
	case *ir.Const:
		return s.Const(rtl.Wrap(x.Val, b.Width), b.Width), nil
	case *ir.Ref:
		place, addr, err := b.lowerAddr(x)
		if err != nil {
			return rtl.NoExpr, err
		}
		return s.Read(place.Storage, b.regionOf(place.Storage).Width, addr), nil
	case *ir.Bin:
		// x - c == x + (-c): widens coverage on machines whose only
		// immediate path feeds an adder.
		if c, ok := x.Y.(*ir.Const); ok && x.Op == rtl.OpSub {
			return b.LowerExpr(&ir.Bin{Op: rtl.OpAdd, X: x.X, Y: &ir.Const{Val: -c.Val}})
		}
		l, err := b.LowerExpr(x.X)
		if err != nil {
			return rtl.NoExpr, err
		}
		r, err := b.LowerExpr(x.Y)
		if err != nil {
			return rtl.NoExpr, err
		}
		w := opWidth(x.Op, b.Width)
		if le, re := s.Expr(l), s.Expr(r); le.Kind == rtl.Const && re.Kind == rtl.Const {
			return s.Const(rtl.EvalBin(x.Op, le.Val, re.Val, w), w), nil
		}
		return s.Op(x.Op, w, l, r), nil
	case *ir.Un:
		k, err := b.LowerExpr(x.X)
		if err != nil {
			return rtl.NoExpr, err
		}
		if ke := s.Expr(k); ke.Kind == rtl.Const {
			return s.Const(rtl.EvalUn(x.Op, ke.Val, b.Width), b.Width), nil
		}
		return s.Op(x.Op, b.Width, k), nil
	}
	return rtl.NoExpr, fmt.Errorf("bind: cannot lower %T", e)
}

func opWidth(op rtl.Op, w int) int {
	switch op {
	case rtl.OpEq, rtl.OpNe, rtl.OpLt, rtl.OpLe, rtl.OpGt, rtl.OpGe:
		return 1
	}
	return w
}

// lowerAddr builds the address tree for a variable reference.
func (b *Binding) lowerAddr(r *ir.Ref) (Placement, rtl.ExprID, error) {
	place, ok := b.Place[r.Name]
	if !ok {
		return place, rtl.NoExpr, fmt.Errorf("bind: unbound variable %s", r.Name)
	}
	region := b.regionOf(place.Storage)
	d := b.decls[r.Name]
	if r.Index == nil {
		if d != nil && d.IsArray() {
			return place, rtl.NoExpr, fmt.Errorf("bind: array %s used without index", r.Name)
		}
		return place, b.exprs.Const(int64(place.Addr), region.AddrWidth), nil
	}
	if d == nil || !d.IsArray() {
		return place, rtl.NoExpr, fmt.Errorf("bind: indexing scalar %s", r.Name)
	}
	if c, isConst := ir.Fold(r.Index).(*ir.Const); isConst {
		if c.Val < 0 || int(c.Val) >= d.Size {
			return place, rtl.NoExpr, fmt.Errorf("bind: %s[%d] out of range (size %d)", r.Name, c.Val, d.Size)
		}
		return place, b.exprs.Const(int64(place.Addr)+c.Val, region.AddrWidth), nil
	}
	// Run-time index: base + index computation, at address width.
	idx, err := b.LowerExpr(r.Index)
	if err != nil {
		return place, rtl.NoExpr, err
	}
	return place, b.exprs.Op(rtl.OpAdd, region.AddrWidth,
		b.exprs.Const(int64(place.Addr), region.AddrWidth),
		b.narrow(idx, region.AddrWidth)), nil
}

// narrow adapts a word-width tree to address width via a slice node (the
// usual address-bus truncation).
func (b *Binding) narrow(e rtl.ExprID, w int) rtl.ExprID {
	if b.exprs.Expr(e).Width > w {
		return b.exprs.Slice(w-1, 0, e)
	}
	return e // narrower-than-bus values are used as-is
}

// ET is one lowered expression tree with its destination: handles into
// the binding's store.
type ET struct {
	Dest     string     // destination storage
	DestAddr rtl.ExprID // cell address tree (rtl.NoExpr for register destinations)
	Src      rtl.ExprID
	Source   string // original statement text for listings
}

// LowerAssign converts one flattened IR assignment to an ET.
func (b *Binding) LowerAssign(a *ir.Assign) (*ET, error) {
	place, addr, err := b.lowerAddr(a.LHS)
	if err != nil {
		return nil, err
	}
	if b.ROM != nil && place.Storage == b.ROM.Memory {
		return nil, fmt.Errorf("bind: internal: assignment to ROM-placed %s", a.LHS.Name)
	}
	src, err := b.LowerExpr(a.RHS)
	if err != nil {
		return nil, err
	}
	return &ET{Dest: place.Storage, DestAddr: addr, Src: src, Source: a.String()}, nil
}

// LowerProgram flattens and lowers a whole program to ETs.
func (b *Binding) LowerProgram(prog *ir.Program) ([]*ET, error) {
	assigns, err := ir.Flatten(prog)
	if err != nil {
		return nil, err
	}
	ets := make([]*ET, 0, len(assigns))
	for _, a := range assigns {
		et, err := b.LowerAssign(a)
		if err != nil {
			return nil, err
		}
		ets = append(ets, et)
	}
	return ets, nil
}

// InitialImages builds the initial memory images from declarations
// (variables without initializers are zero).
func (b *Binding) InitialImages(prog *ir.Program) map[string][]int64 {
	imgs := make(map[string][]int64)
	imgs[b.Primary.Memory] = make([]int64, b.Primary.Size)
	if b.ROM != nil {
		imgs[b.ROM.Memory] = make([]int64, b.ROM.Size)
	}
	for _, d := range prog.Decls {
		place := b.Place[d.Name]
		img := imgs[place.Storage]
		w := b.regionOf(place.Storage).Width
		for i, v := range d.Init {
			if place.Addr+i < len(img) {
				img[place.Addr+i] = rtl.Wrap(v, w)
			}
		}
	}
	return imgs
}

// ReadBack is the inverse of InitialImages: it reads the values of decls
// out of the memory images mem (storage name to cells) at their
// placements.  Declarations without a placement are skipped.
func (b *Binding) ReadBack(mem map[string][]int64, decls []*ir.Decl) ir.Env {
	env := make(ir.Env, len(decls))
	for _, d := range decls {
		place, ok := b.Place[d.Name]
		if !ok {
			continue
		}
		cells := make([]int64, d.Cells())
		copy(cells, mem[place.Storage][place.Addr:place.Addr+d.Cells()])
		env[d.Name] = cells
	}
	return env
}
