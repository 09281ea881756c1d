// Package sim is a cycle-accurate simulator for elaborated netlist models.
//
// Each cycle it evaluates every module behavior over the current storage
// state and interconnect (lazily, with per-cycle memoization), collects all
// guarded storage writes, and commits them simultaneously — the standard
// two-phase RT-level semantics.  Bus contention (multiple active tristate
// drivers), floating buses that are actually consumed, and same-cell write
// conflicts are hard errors: they indicate either a broken model or
// miscompiled/miscompacted code, which is exactly what the end-to-end
// tests use the simulator to detect.
//
// Values use the same canonical two's-complement representation as the IR
// interpreter (rtl.Wrap), so the two sides can be compared cell by cell.
package sim

import (
	"fmt"

	"repro/internal/faultpoint"
	"repro/internal/hdl"
	"repro/internal/netlist"
	"repro/internal/rtl"
)

// Simulator holds the architectural state of one netlist model.
type Simulator struct {
	N *netlist.Netlist
	// Mem maps qualified storage names to cell values (canonical
	// sign-extended representation).
	Mem map[string][]int64
	// In supplies primary input port values.
	In map[string]int64

	Cycle int

	// Per-cycle caches and the cycle's pending writes, emptied and
	// reused by every Step.
	outCache map[outKey]int64
	busCache map[string]int64
	writes   []write
}

// outKey names an instance output port in outCache.
type outKey struct {
	inst *netlist.Inst
	port string
}

// New builds a simulator with zeroed storage.
func New(n *netlist.Netlist) *Simulator {
	s := &Simulator{
		N:   n,
		Mem: make(map[string][]int64),
		In:  make(map[string]int64),
	}
	for _, st := range n.Seq {
		s.Mem[st.QName()] = make([]int64, st.Size())
	}
	return s
}

// LoadProgram writes instruction words into the instruction memory.
func (s *Simulator) LoadProgram(words []uint64) error {
	insn := s.N.InsnInst
	if insn == nil {
		return fmt.Errorf("sim: model has no instruction memory")
	}
	var storage *netlist.Storage
	for _, st := range s.N.Seq {
		if st.Insn {
			storage = st
		}
	}
	if storage == nil {
		return fmt.Errorf("sim: instruction part has no storage")
	}
	cells := s.Mem[storage.QName()]
	if len(words) > len(cells) {
		return fmt.Errorf("sim: program (%d words) exceeds instruction memory (%d)", len(words), len(cells))
	}
	for i, w := range words {
		cells[i] = rtl.Wrap(int64(w), storage.Width())
	}
	return nil
}

// SetMemory replaces the contents of a storage (prefix of its cells).
func (s *Simulator) SetMemory(qname string, img []int64) error {
	cells, ok := s.Mem[qname]
	if !ok {
		return fmt.Errorf("sim: unknown storage %s", qname)
	}
	if len(img) > len(cells) {
		return fmt.Errorf("sim: image (%d) exceeds storage %s (%d)", len(img), qname, len(cells))
	}
	st := s.N.Storages[qname]
	for i, v := range img {
		cells[i] = rtl.Wrap(v, st.Width())
	}
	return nil
}

// PC returns the current program counter value (unsigned), or -1 when the
// model has no PC part.
func (s *Simulator) PC() int64 {
	if s.N.PCInst == nil {
		return -1
	}
	for _, st := range s.N.Seq {
		if st.PC {
			v := s.Mem[st.QName()][0]
			return int64(uint64(v) & rtl.Mask(st.Width()))
		}
	}
	return -1
}

// write is one pending storage write: cell idx of variable v of inst,
// whose cells are cells.
type write struct {
	inst  *netlist.Inst
	v     string
	cells []int64
	idx   int
	val   int64
}

// Step executes one machine cycle.
func (s *Simulator) Step() error {
	if err := faultpoint.Hit("sim.step", s.N.Name); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if s.outCache == nil {
		s.outCache, s.busCache = make(map[outKey]int64), make(map[string]int64)
	}
	clear(s.outCache)
	clear(s.busCache)
	writes := s.writes[:0]
	for _, inst := range s.N.Insts {
		for _, st := range inst.Mod.Stmts {
			if st.LHS.Var == nil {
				continue // output port assignments are combinational
			}
			if st.Guard != nil {
				g, err := s.evalMod(inst, st.Guard)
				if err != nil {
					return err
				}
				if g == 0 {
					continue
				}
			}
			val, err := s.evalMod(inst, st.RHS)
			if err != nil {
				return err
			}
			idx := 0
			if st.LHS.Index != nil {
				iv, err := s.evalMod(inst, st.LHS.Index)
				if err != nil {
					return err
				}
				idx = int(uint64(iv) & rtl.Mask(exprWidth(st.LHS.Index)))
			}
			v := st.LHS.Var.Name
			cells := s.Mem[inst.Name+"."+v]
			if idx < 0 || idx >= len(cells) {
				return fmt.Errorf("sim: cycle %d: %s.%s index %d out of range", s.Cycle, inst.Name, v, idx)
			}
			writes = append(writes, write{inst, v, cells, idx, rtl.Wrap(val, st.LHS.Var.Width)})
		}
	}
	s.writes = writes
	// Conflict check and simultaneous commit: two writes of one cell
	// must agree.
	for i, w := range writes {
		for _, o := range writes[:i] {
			if o.inst == w.inst && o.v == w.v && o.idx == w.idx && o.val != w.val {
				return fmt.Errorf("sim: cycle %d: write conflict on %s.%s[%d]", s.Cycle, w.inst.Name, w.v, w.idx)
			}
		}
	}
	for _, w := range writes {
		w.cells[w.idx] = w.val
	}
	s.Cycle++
	return nil
}

// Run executes n cycles.
func (s *Simulator) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunProgram loads words, runs exactly len(words) cycles (straight-line
// execution driven by the PC), and returns.  The PC must start at 0.
func (s *Simulator) RunProgram(words []uint64) error {
	if err := s.LoadProgram(words); err != nil {
		return err
	}
	return s.Run(len(words))
}

// evalMod evaluates an expression in the module scope of inst or, with
// inst nil, in connect scope (a bus WHEN condition).
func (s *Simulator) evalMod(inst *netlist.Inst, e hdl.Expr) (int64, error) {
	switch x := e.(type) {
	case *hdl.NumExpr:
		return rtl.Wrap(x.Val, x.Width), nil
	case *hdl.PortSelExpr:
		return s.evalOut(s.N.InstByName[x.Part], x.Port)
	case *hdl.IdentExpr:
		switch {
		case x.Bus != nil:
			return s.evalBus(s.N.Buses[x.Name])
		case x.Primary != nil:
			return rtl.Wrap(s.In[x.Name], x.Width), nil
		case x.Port != nil:
			d := inst.Drivers[x.Name]
			if d == nil {
				return 0, fmt.Errorf("sim: %s.%s undriven", inst.Name, x.Name)
			}
			return s.evalDriver(d)
		case x.Var != nil:
			return s.Mem[inst.Name+"."+x.Var.Name][0], nil
		case x.Const != nil:
			return rtl.Wrap(x.Const.Value, x.Width), nil
		}
		return 0, fmt.Errorf("sim: unresolved identifier %s", x.Name)
	case *hdl.IndexExpr:
		if x.IsSlice {
			base, err := s.evalMod(inst, x.X)
			if err != nil {
				return 0, err
			}
			return rtl.EvalSlice(base, x.SliceHi, x.SliceLo), nil
		}
		id := x.X.(*hdl.IdentExpr)
		iv, err := s.evalMod(inst, x.Hi)
		if err != nil {
			return 0, err
		}
		idx := int(uint64(iv) & rtl.Mask(exprWidth(x.Hi)))
		cells := s.Mem[inst.Name+"."+id.Var.Name]
		if idx < 0 || idx >= len(cells) {
			return 0, fmt.Errorf("sim: cycle %d: %s.%s read index %d out of range",
				s.Cycle, inst.Name, id.Var.Name, idx)
		}
		return cells[idx], nil
	case *hdl.BinExpr:
		a, err := s.evalMod(inst, x.X)
		if err != nil {
			return 0, err
		}
		b, err := s.evalMod(inst, x.Y)
		if err != nil {
			return 0, err
		}
		return evalBin(x.Op, a, b, x, e)
	case *hdl.UnExpr:
		a, err := s.evalMod(inst, x.X)
		if err != nil {
			return 0, err
		}
		return rtl.EvalUn(x.Op, a, x.Width), nil
	case *hdl.CaseExpr:
		sel, err := s.evalMod(inst, x.Sel)
		if err != nil {
			return 0, err
		}
		selW := exprWidth(x.Sel)
		for _, a := range x.Alts {
			if rtl.Wrap(a.Val, selW) == sel {
				return s.evalMod(inst, a.Body)
			}
		}
		if x.Else != nil {
			return s.evalMod(inst, x.Else)
		}
		return 0, nil
	}
	return 0, fmt.Errorf("sim: cannot evaluate %T", e)
}

func exprWidth(e hdl.Expr) int {
	w := e.ExprWidth()
	if w <= 0 {
		return 64
	}
	return w
}

// evalBin dispatches shifts with unsigned amounts, everything else via
// rtl.EvalBin.
func evalBin(op rtl.Op, a, b int64, x *hdl.BinExpr, e hdl.Expr) (int64, error) {
	switch op {
	case rtl.OpShl, rtl.OpShr, rtl.OpAshr:
		amt := int64(uint64(b) & rtl.Mask(exprWidth(x.Y)))
		return rtl.EvalBin(op, a, amt, x.Width), nil
	}
	return rtl.EvalBin(op, a, b, x.Width), nil
}

// evalOut evaluates an instance output port (with per-cycle memoization).
func (s *Simulator) evalOut(inst *netlist.Inst, port string) (int64, error) {
	key := outKey{inst, port}
	if v, ok := s.outCache[key]; ok {
		return v, nil
	}
	st := inst.OutStmt(port)
	if st == nil {
		return 0, fmt.Errorf("sim: output %s.%s has no behavior", inst.Name, port)
	}
	v, err := s.evalMod(inst, st.RHS)
	if err != nil {
		return 0, err
	}
	s.outCache[key] = v
	return v, nil
}

// evalDriver evaluates a value source (with slicing).
func (s *Simulator) evalDriver(d *netlist.Driver) (int64, error) {
	switch d.Kind {
	case netlist.DriveConst:
		return rtl.Wrap(d.Const, d.Width), nil
	case netlist.DrivePrimary:
		full := s.In[d.Primary]
		return rtl.EvalSlice(full, d.Hi, d.Lo), nil
	case netlist.DrivePort:
		v, err := s.evalOut(d.Inst, d.Port)
		if err != nil {
			return 0, err
		}
		full := d.Inst.Mod.PortByName[d.Port].Width
		if d.Lo == 0 && d.Hi == full-1 {
			return v, nil
		}
		return rtl.EvalSlice(v, d.Hi, d.Lo), nil
	case netlist.DriveBus:
		v, err := s.evalBus(d.Bus)
		if err != nil {
			return 0, err
		}
		if d.Lo == 0 && d.Hi == d.Bus.Width-1 {
			return v, nil
		}
		return rtl.EvalSlice(v, d.Hi, d.Lo), nil
	}
	return 0, fmt.Errorf("sim: bad driver")
}

// evalBus resolves tristate arbitration: exactly one enabled driver.
func (s *Simulator) evalBus(b *netlist.Bus) (int64, error) {
	if v, ok := s.busCache[b.Name]; ok {
		return v, nil
	}
	active := -1
	for i, bd := range b.Drivers {
		en := int64(-1) // unconditional drivers are always on
		if bd.When != nil {
			v, err := s.evalMod(nil, bd.When)
			if err != nil {
				return 0, err
			}
			en = v
		}
		if en != 0 {
			if active >= 0 {
				return 0, fmt.Errorf("sim: cycle %d: bus %s contention (drivers %d and %d)",
					s.Cycle, b.Name, active, i)
			}
			active = i
		}
	}
	if active < 0 {
		return 0, fmt.Errorf("sim: cycle %d: bus %s floating", s.Cycle, b.Name)
	}
	v, err := s.evalDriver(b.Drivers[active].Src)
	if err != nil {
		return 0, err
	}
	s.busCache[b.Name] = v
	return v, nil
}
