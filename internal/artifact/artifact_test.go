package artifact

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dspstone"
	"repro/internal/faultpoint"
	"repro/internal/models"
	"repro/internal/rtl"
)

func retarget(t testing.TB, model string) (*core.Target, string) {
	t.Helper()
	mdl, ok := models.Get(model)
	if !ok {
		t.Fatalf("model %s missing", model)
	}
	tg, err := core.RetargetContext(context.Background(), mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatalf("retarget %s: %v", model, err)
	}
	return tg, mdl
}

// modelNames lists every bundled model: the table-3 set plus brancher.
func modelNames() []string {
	names := []string{"brancher"}
	for _, e := range models.All() {
		names = append(names, e.Name)
	}
	return names
}

// roundTrip encodes tg's artifact and decodes it into a fresh Target.
func roundTrip(t *testing.T, tg *core.Target, mdl string) *core.Target {
	t.Helper()
	a, err := New(tg, mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	a2, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if a2.Key != a.Key || a2.Name != tg.Name {
		t.Fatalf("metadata lost: key %q name %q", a2.Key, a2.Name)
	}
	tg2, err := a2.Target()
	if err != nil {
		t.Fatalf("Target: %v", err)
	}
	return tg2
}

// TestRoundTripGolden retargets every bundled model, encodes and decodes
// its artifact, and compiles every DSPStone kernel through both the fresh
// and the decoded Target: the words and listings must be identical (or
// both compiles fail with the same error), and every decoded compile must
// pass the hardware-vs-oracle check.
func TestRoundTripGolden(t *testing.T) {
	compiled := 0
	for _, name := range modelNames() {
		t.Run(name, func(t *testing.T) {
			tg, mdl := retarget(t, name)
			tg2 := roundTrip(t, tg, mdl)
			if tg2.Stats.Templates != tg.Stats.Templates || tg2.Base.Len() != tg.Base.Len() {
				t.Fatalf("templates %d (base %d) -> %d (base %d)",
					tg.Stats.Templates, tg.Base.Len(), tg2.Stats.Templates, tg2.Base.Len())
			}
			if tg2.Stats.GrammarSz != tg.Stats.GrammarSz {
				t.Fatalf("grammar stats %+v -> %+v", tg.Stats.GrammarSz, tg2.Stats.GrammarSz)
			}
			if tg2.Stats.Extracted != tg.Stats.Extracted || tg2.Stats.ISEDetails != tg.Stats.ISEDetails {
				t.Fatalf("extraction stats %d %+v -> %d %+v", tg.Stats.Extracted, tg.Stats.ISEDetails,
					tg2.Stats.Extracted, tg2.Stats.ISEDetails)
			}
			for _, k := range dspstone.Suite() {
				fresh, ferr := tg.CompileSourceContext(context.Background(), k.Source, core.CompileOptions{})
				decoded, derr := tg2.CompileSourceContext(context.Background(), k.Source, core.CompileOptions{})
				if ferr != nil || derr != nil {
					if ferr == nil || derr == nil || ferr.Error() != derr.Error() {
						t.Errorf("%s: fresh error %v, decoded error %v", k.Name, ferr, derr)
					}
					continue
				}
				if !slices.Equal(fresh.Words(), decoded.Words()) {
					t.Errorf("%s: words differ between fresh and decoded targets", k.Name)
				}
				if tg.Listing(fresh) != tg2.Listing(decoded) {
					t.Errorf("%s: listings differ between fresh and decoded targets", k.Name)
				}
				if err := tg2.CheckAgainstOracle(decoded); err != nil {
					t.Errorf("%s: decoded target fails oracle: %v", k.Name, err)
				}
				compiled++
			}
		})
	}
	if compiled == 0 {
		t.Fatal("no kernel compiled on any model")
	}
}

// TestEncodeDeterministic asserts that two independent Retarget runs of
// the same model encode to byte-identical artifacts (satellite: map-order
// nondeterminism in grammar/BURS table construction would surface here).
func TestEncodeDeterministic(t *testing.T) {
	for _, model := range []string{"demo", "tms320c25"} {
		tg1, mdl := retarget(t, model)
		tg2, _ := retarget(t, model)
		a1, err := New(tg1, mdl, core.RetargetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a2, err := New(tg2, mdl, core.RetargetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b1, err := a1.Encode()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := a2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: independent retargets encode differently (%d vs %d bytes)", model, len(b1), len(b2))
		}
	}
}

func TestKeySensitivity(t *testing.T) {
	mdl, _ := models.Get("demo")
	base := Key(mdl, core.RetargetOptions{})
	if got := Key(mdl, core.RetargetOptions{}); got != base {
		t.Fatal("key not stable")
	}
	if Key(mdl+" ", core.RetargetOptions{}) == base {
		t.Fatal("key ignores model source")
	}
	if Key(mdl, core.RetargetOptions{NoExtension: true}) == base {
		t.Fatal("key ignores options")
	}
	// Normalized defaults share a key with the explicit default values.
	explicit := core.RetargetOptions{}
	explicit.ISE.MaxAlts = 4096
	explicit.ISE.MaxTemplates = 65536
	if Key(mdl, explicit) != base {
		t.Fatal("key does not normalize default ISE limits")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	tg, mdl := retarget(t, "demo")
	a, err := New(tg, mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Fatal("truncated artifact accepted")
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-10] ^= 0x40
	if _, err := Decode(flipped); err == nil {
		t.Fatal("bit-flipped artifact accepted")
	}
	if _, err := Decode([]byte("not an artifact")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestTargetRejectsMalformedExpr: a checksum-valid artifact whose stored
// expression trees are missing kids (or carry extra ones) must fail to
// restore with an error — grammar construction, the encoder and the
// simulator all index Kids without checking, and a panic on the disk
// load path would kill the daemon.
func TestTargetRejectsMalformedExpr(t *testing.T) {
	konst := rtl.NewConst(1, 4)
	malformed := []struct {
		name  string
		e     *rtl.Expr
		apply func(te *TemplateEnc, e *rtl.Expr)
	}{
		{"slice without kid", &rtl.Expr{Kind: rtl.Slice, Hi: 1, Width: 2}, setSrc},
		{"op with nil kids", &rtl.Expr{Kind: rtl.OpApp, Op: rtl.OpAdd, Width: 4, Kids: []*rtl.Expr{nil, nil}}, setSrc},
		{"op without kids", &rtl.Expr{Kind: rtl.OpApp, Op: rtl.OpAdd, Width: 4}, setSrc},
		{"unary op with two kids", &rtl.Expr{Kind: rtl.OpApp, Op: rtl.OpNot, Width: 4, Kids: []*rtl.Expr{konst, konst}}, setSrc},
		{"leaf with kid", &rtl.Expr{Kind: rtl.Const, Width: 4, Kids: []*rtl.Expr{konst}}, setSrc},
		{"read with two kids", &rtl.Expr{Kind: rtl.Read, Storage: "m", Width: 4, Kids: []*rtl.Expr{konst, konst}}, setSrc},
		{"read with nil address", &rtl.Expr{Kind: rtl.Read, Storage: "m", Width: 4, Kids: []*rtl.Expr{nil}}, setSrc},
		{"unknown kind", &rtl.Expr{Kind: 42, Width: 4}, setSrc},
		{"nested slice without kid", rtl.NewOp(rtl.OpAdd, 4, konst, &rtl.Expr{Kind: rtl.Slice, Width: 1}), setSrc},
		{"destination address", &rtl.Expr{Kind: rtl.Slice, Width: 1},
			func(te *TemplateEnc, e *rtl.Expr) { te.DestAddr = e }},
		{"dynamic guard", &rtl.Expr{Kind: rtl.OpApp, Op: rtl.OpEq, Width: 1},
			func(te *TemplateEnc, e *rtl.Expr) { te.Dynamic = append(te.Dynamic, e) }},
	}
	tg, mdl := retarget(t, "tms320c25")
	for _, m := range malformed {
		t.Run(m.name, func(t *testing.T) {
			a, err := New(tg, mdl, core.RetargetOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Templates {
				m.apply(&a.Templates[i], m.e)
			}
			data, err := a.Encode()
			if err != nil {
				t.Fatal(err)
			}
			a2, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if _, err := a2.Target(); err == nil {
				t.Fatal("artifact with malformed expressions restored without error")
			}
		})
	}
}

func setSrc(te *TemplateEnc, e *rtl.Expr) { te.Src = e }

// TestTargetRecoversGrammarFault: decode re-runs grammar construction, so
// a panic while lowering a rule must come back as an error, as it does
// from the retarget path's phase boundary.
func TestTargetRecoversGrammarFault(t *testing.T) {
	tg, mdl := retarget(t, "tanenbaum")
	a, err := New(tg, mdl, core.RetargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.ArmSpec("grammar.rule=panic"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Reset()
	var pe *diag.PanicError
	if _, err := a.Target(); !errors.As(err, &pe) {
		t.Fatalf("Target with a panicking grammar.rule: %v, want a recovered panic", err)
	}
}

// frame wraps a JSON payload in a valid artifact header, so mutated
// payloads pass the checksum and reach Target.
func frame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return fmt.Appendf(nil, "%s %d %x\n%s", magic, FormatVersion, sum, payload)
}

// FuzzArtifactTarget mutates a valid tanenbaum artifact's payload and
// re-frames it with a correct checksum: Decode followed by Target must
// return an error or a target, never panic.
func FuzzArtifactTarget(f *testing.F) {
	tg, mdl := retarget(f, "tanenbaum")
	a, err := New(tg, mdl, core.RetargetOptions{})
	if err != nil {
		f.Fatal(err)
	}
	payload, err := json.Marshal(a)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Fuzz(func(t *testing.T, payload []byte) {
		a, err := Decode(frame(payload))
		if err != nil {
			return
		}
		a.Target()
	})
}
