package bdd

import (
	"errors"
	"testing"

	"repro/internal/diag"
	"repro/internal/faultpoint"
)

// TestInvariantPanicsAreTyped documents the invariant-only panic contract:
// caller-contract violations panic with InvariantError, never with bare
// strings, so recovery boundaries can attribute them.
func TestInvariantPanicsAreTyped(t *testing.T) {
	m := New()
	for _, fn := range []func(){
		func() { m.Var(-1) },
		func() { m.NVar(-5) },
	} {
		func() {
			defer func() {
				v := recover()
				if _, ok := v.(InvariantError); !ok {
					t.Errorf("panic value %T %v, want InvariantError", v, v)
				}
			}()
			fn()
			t.Error("no panic")
		}()
	}
}

// TestRecoveryBoundary shows the diag.Capture boundary converting an
// invariant panic into an inspectable error instead of a crash.
func TestRecoveryBoundary(t *testing.T) {
	m := New()
	err := diag.Capture(func() error {
		m.Var(-1)
		return nil
	})
	var pe *diag.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := pe.Value.(InvariantError); !ok {
		t.Errorf("recovered %T, want InvariantError", pe.Value)
	}
}

// TestIteFaultpoint verifies the bdd.ite injection site panics with a
// *faultpoint.Fault that the phase boundary can recover.
func TestIteFaultpoint(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Arm("bdd.ite", faultpoint.Action{Kind: faultpoint.KindError})
	m := New()
	a, b := m.Var(0), m.Var(1)
	err := diag.Capture(func() error {
		m.And(a, b)
		return nil
	})
	var pe *diag.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := pe.Value.(*faultpoint.Fault); !ok {
		t.Errorf("recovered %T, want *faultpoint.Fault", pe.Value)
	}
	// Disarmed after one firing: the same operation now succeeds.
	if got := m.And(a, b); got == m.False() {
		t.Errorf("And after disarm = %v", got)
	}
}
