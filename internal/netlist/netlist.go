// Package netlist elaborates a checked HDL model into RECORD's internal
// graph model (paper fig. 1): part instances as nodes, their port
// interconnections and tristate busses as edges, plus registries of the
// sequential storages, the instruction memory and mode registers that
// instruction-set extraction and the simulator operate on.
package netlist

import (
	"fmt"
	"sort"

	"repro/internal/hdl"
)

// DriverKind discriminates what drives a value sink.
type DriverKind int

// Driver kinds.
const (
	DrivePort    DriverKind = iota // another instance's output port (sliced)
	DriveBus                       // a tristate bus
	DriveConst                     // a hardwired constant
	DrivePrimary                   // a primary processor input port (sliced)
)

// Driver is the resolved source of an instance input port, a bus driver
// value, or a primary output port.
type Driver struct {
	Kind    DriverKind
	Inst    *Inst  // DrivePort
	Port    string // DrivePort: output port name
	Bus     *Bus   // DriveBus
	Const   int64  // DriveConst
	Primary string // DrivePrimary
	Hi, Lo  int    // bit slice of the source (full range when unsliced)
	Width   int    // width delivered to the sink (Hi-Lo+1 except DriveConst/Bus)
}

// String renders the driver for diagnostics.
func (d *Driver) String() string {
	switch d.Kind {
	case DrivePort:
		if d.Hi == d.Inst.Mod.PortByName[d.Port].Width-1 && d.Lo == 0 {
			return fmt.Sprintf("%s.%s", d.Inst.Name, d.Port)
		}
		return fmt.Sprintf("%s.%s[%d:%d]", d.Inst.Name, d.Port, d.Hi, d.Lo)
	case DriveBus:
		return d.Bus.Name
	case DriveConst:
		return fmt.Sprintf("%d", d.Const)
	case DrivePrimary:
		return fmt.Sprintf("%s[%d:%d]", d.Primary, d.Hi, d.Lo)
	}
	return "<bad driver>"
}

// BusDriver is one tristate driver of a bus.
type BusDriver struct {
	Src  *Driver
	When hdl.Expr // nil for an unconditional driver
}

// Bus is an elaborated tristate bus.
type Bus struct {
	Name    string
	Width   int
	Drivers []*BusDriver
}

// Inst is an elaborated part instance.
type Inst struct {
	Name    string
	Mod     *hdl.Module
	Flag    hdl.PartFlag
	Drivers map[string]*Driver // input port name -> driver
}

// IsSequential reports whether the instance contains storage.
func (i *Inst) IsSequential() bool { return i.Mod.IsSequential() }

// OutStmt returns the behavior statement assigning output port name, or nil.
func (i *Inst) OutStmt(port string) *hdl.Stmt {
	for _, st := range i.Mod.Stmts {
		if st.LHS.Port != nil && st.LHS.Name == port {
			return st
		}
	}
	return nil
}

// Storage is one elaborated storage resource (register, register file or
// memory) within an instance.
type Storage struct {
	Inst *Inst
	Var  *hdl.VarDecl
	Mode bool // belongs to a MODE part
	PC   bool // belongs to the PC part
	Insn bool // belongs to the instruction memory
	name string
}

// QName returns the qualified "inst.var" name used across the compiler.
func (s *Storage) QName() string { return s.name }

// Writable reports whether the module behavior ever writes this storage
// (false for ROM-style components).
func (s *Storage) Writable() bool {
	for _, st := range s.Inst.Mod.Stmts {
		if st.LHS.Var != nil && st.LHS.Name == s.Var.Name {
			return true
		}
	}
	return false
}

// Width returns the cell width in bits.
func (s *Storage) Width() int { return s.Var.Width }

// Size returns the number of cells.
func (s *Storage) Size() int { return s.Var.Size }

// Netlist is the elaborated graph model.
type Netlist struct {
	Name       string
	Model      *hdl.Model
	Insts      []*Inst
	InstByName map[string]*Inst
	Buses      map[string]*Bus

	// Storages maps qualified names to storage resources, and Seq lists
	// them in deterministic order.
	Storages map[string]*Storage
	Seq      []*Storage

	// Instruction memory identification.
	InsnInst  *Inst
	InsnPort  string // output port carrying the instruction word
	InsnWidth int

	PCInst *Inst // nil when the model has no PC part

	// Primary ports.
	PrimaryIn  map[string]*hdl.PrimaryPort
	PrimaryOut map[string]*Driver // primary output name -> driver
}

// Elaborate builds the graph model from a checked HDL model.
func Elaborate(m *hdl.Model) (*Netlist, error) {
	n := &Netlist{
		Name:       m.Name,
		Model:      m,
		InstByName: make(map[string]*Inst),
		Buses:      make(map[string]*Bus),
		Storages:   make(map[string]*Storage),
		PrimaryIn:  make(map[string]*hdl.PrimaryPort),
		PrimaryOut: make(map[string]*Driver),
	}
	for _, b := range m.Buses {
		n.Buses[b.Name] = &Bus{Name: b.Name, Width: b.Width}
	}
	for _, pp := range m.Ports {
		if pp.Dir == hdl.DirIn {
			n.PrimaryIn[pp.Name] = pp
		}
	}
	for _, p := range m.Parts {
		inst := &Inst{Name: p.Name, Mod: p.Module, Flag: p.Flag,
			Drivers: make(map[string]*Driver)}
		n.Insts = append(n.Insts, inst)
		n.InstByName[p.Name] = inst
		for _, v := range p.Module.Vars {
			s := &Storage{Inst: inst, Var: v,
				Mode: p.Flag == hdl.FlagMode,
				PC:   p.Flag == hdl.FlagPC,
				Insn: p.Flag == hdl.FlagInstruction,
				name: inst.Name + "." + v.Name,
			}
			n.Storages[s.name] = s
			n.Seq = append(n.Seq, s)
		}
		if p.Flag == hdl.FlagInstruction {
			n.InsnInst = inst
			for _, mp := range p.Module.Ports {
				if mp.Dir == hdl.DirOut {
					n.InsnPort = mp.Name
					n.InsnWidth = mp.Width
				}
			}
		}
		if p.Flag == hdl.FlagPC {
			n.PCInst = inst
		}
	}
	sort.Slice(n.Seq, func(i, j int) bool { return n.Seq[i].QName() < n.Seq[j].QName() })

	for _, c := range m.Connects {
		drv, err := n.resolveSource(c.Src)
		if err != nil {
			return nil, err
		}
		switch {
		case c.SinkPart != "":
			inst := n.InstByName[c.SinkPart]
			inst.Drivers[c.SinkPort] = drv
		default:
			if bus, ok := n.Buses[c.SinkPort]; ok {
				bus.Drivers = append(bus.Drivers, &BusDriver{Src: drv, When: c.When})
			} else {
				n.PrimaryOut[c.SinkPort] = drv
			}
		}
	}

	if err := n.checkCombLoops(); err != nil {
		return nil, err
	}
	return n, nil
}

// resolveSource converts a checked connect-source expression into a Driver.
// Sources must be simple references (glue logic belongs in modules).
func (n *Netlist) resolveSource(e hdl.Expr) (*Driver, error) {
	switch x := e.(type) {
	case *hdl.NumExpr:
		return &Driver{Kind: DriveConst, Const: x.Val, Width: x.Width}, nil
	case *hdl.IdentExpr:
		switch {
		case x.Bus != nil:
			return &Driver{Kind: DriveBus, Bus: n.Buses[x.Name],
				Hi: x.Width - 1, Lo: 0, Width: x.Width}, nil
		case x.Primary != nil:
			return &Driver{Kind: DrivePrimary, Primary: x.Name,
				Hi: x.Width - 1, Lo: 0, Width: x.Width}, nil
		case x.Const != nil:
			return &Driver{Kind: DriveConst, Const: x.Const.Value, Width: x.Width}, nil
		}
		return nil, fmt.Errorf("%s: connect source %q is not a bus, primary port or constant", x.Pos, x.Name)
	case *hdl.PortSelExpr:
		inst := n.InstByName[x.Part]
		return &Driver{Kind: DrivePort, Inst: inst, Port: x.Port,
			Hi: x.Width - 1, Lo: 0, Width: x.Width}, nil
	case *hdl.IndexExpr:
		if !x.IsSlice {
			return nil, fmt.Errorf("%s: connect source must be a simple reference or bit slice", x.Pos)
		}
		base, err := n.resolveSource(x.X)
		if err != nil {
			return nil, err
		}
		if base.Kind == DriveConst {
			return nil, fmt.Errorf("%s: cannot slice constant %s in a connect source", x.Pos, base)
		}
		base.Hi = base.Lo + x.SliceHi
		base.Lo = base.Lo + x.SliceLo
		base.Width = x.Width
		return base, nil
	}
	return nil, fmt.Errorf("%s: connect source expression %s too complex (move glue logic into a module)", e.ExprPos(), e)
}

// OutputDeps returns the input port names that output port out of inst
// combinationally depends on.
func (n *Netlist) OutputDeps(inst *Inst, out string) []string {
	st := inst.OutStmt(out)
	if st == nil {
		return nil
	}
	seen := make(map[string]bool)
	var deps []string
	refs(st.RHS, func(r hdl.Expr) {
		if x, ok := r.(*hdl.IdentExpr); ok && x.Port != nil && x.Port.Dir == hdl.DirIn && !seen[x.Name] {
			seen[x.Name] = true
			deps = append(deps, x.Name)
		}
	})
	sort.Strings(deps)
	return deps
}

// refs calls fn for every identifier and part.port reference in e, in
// either scope.
func refs(e hdl.Expr, fn func(hdl.Expr)) {
	switch x := e.(type) {
	case *hdl.IdentExpr, *hdl.PortSelExpr:
		fn(e)
	case *hdl.IndexExpr:
		refs(x.X, fn)
		refs(x.Hi, fn)
		if x.Lo != nil {
			refs(x.Lo, fn)
		}
	case *hdl.BinExpr:
		refs(x.X, fn)
		refs(x.Y, fn)
	case *hdl.UnExpr:
		refs(x.X, fn)
	case *hdl.CaseExpr:
		refs(x.Sel, fn)
		for _, a := range x.Alts {
			refs(a.Body, fn)
		}
		if x.Else != nil {
			refs(x.Else, fn)
		}
	}
}

// checkCombLoops rejects models with combinational cycles.  Nodes of the
// dependency graph are instance output ports and buses; edges follow
// behavior expressions, bus WHEN conditions and interconnect.
func (n *Netlist) checkCombLoops() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var visitOut func(inst *Inst, port string) error
	var visitDrv func(d *Driver) error
	var visitBus func(b *Bus) error

	// visitWhen follows the part outputs and buses a WHEN condition reads.
	visitWhen := func(e hdl.Expr) error {
		var err error
		refs(e, func(r hdl.Expr) {
			if err != nil {
				return
			}
			switch x := r.(type) {
			case *hdl.PortSelExpr:
				err = visitOut(n.InstByName[x.Part], x.Port)
			case *hdl.IdentExpr:
				if x.Bus != nil {
					err = visitBus(n.Buses[x.Name])
				}
			}
		})
		return err
	}
	visitDrv = func(d *Driver) error {
		if d == nil {
			return nil
		}
		switch d.Kind {
		case DrivePort:
			return visitOut(d.Inst, d.Port)
		case DriveBus:
			return visitBus(d.Bus)
		}
		return nil
	}
	visitBus = func(b *Bus) error {
		key := "bus:" + b.Name
		switch color[key] {
		case gray:
			return fmt.Errorf("combinational loop through bus %s", b.Name)
		case black:
			return nil
		}
		color[key] = gray
		for _, bd := range b.Drivers {
			if err := visitDrv(bd.Src); err != nil {
				return err
			}
			if err := visitWhen(bd.When); err != nil {
				return err
			}
		}
		color[key] = black
		return nil
	}
	visitOut = func(inst *Inst, port string) error {
		key := inst.Name + "." + port
		switch color[key] {
		case gray:
			return fmt.Errorf("combinational loop through %s", key)
		case black:
			return nil
		}
		color[key] = gray
		for _, in := range n.OutputDeps(inst, port) {
			if err := visitDrv(inst.Drivers[in]); err != nil {
				return err
			}
		}
		color[key] = black
		return nil
	}

	for _, inst := range n.Insts {
		for _, mp := range inst.Mod.Ports {
			if mp.Dir == hdl.DirOut {
				if err := visitOut(inst, mp.Name); err != nil {
					return err
				}
			}
		}
	}
	for _, b := range n.Buses {
		if err := visitBus(b); err != nil {
			return err
		}
	}
	return nil
}

// DataStorages returns the sequential storages that participate in the
// datapath: everything except the instruction memory (mode registers and
// the PC are included — they are RT destinations too).
func (n *Netlist) DataStorages() []*Storage {
	var out []*Storage
	for _, s := range n.Seq {
		if !s.Insn {
			out = append(out, s)
		}
	}
	return out
}

// ModeStorages returns the mode-register storages.
func (n *Netlist) ModeStorages() []*Storage {
	var out []*Storage
	for _, s := range n.Seq {
		if s.Mode {
			out = append(out, s)
		}
	}
	return out
}
