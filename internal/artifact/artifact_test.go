package artifact

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dspstone"
	"repro/internal/faultpoint"
	"repro/internal/ise"
	"repro/internal/models"
	"repro/internal/rewrite"
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
// newCompiler builds a compile handle for tg.  A new handle's session
// pool is empty, so its first compile runs on a fresh encoding session.
func newCompiler(t testing.TB, tg *core.Target) *core.Compiler {
	t.Helper()
	c, err := core.NewCompiler(tg, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

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
	if a2.Key != a.Key || a2.Model != mdl || a2.Options.String() != a.Options.String() {
		t.Fatalf("artifact changed across encode and decode: %+v -> %+v", a.Options, a2.Options)
	}
	tg2, err := a2.Target()
	if err != nil {
		t.Fatalf("Target: %v", err)
	}
	if tg2.Name != tg.Name {
		t.Fatalf("target name %q -> %q", tg.Name, tg2.Name)
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
				fresh, ferr := newCompiler(t, tg).CompileSource(context.Background(), k.Source)
				decoded, derr := newCompiler(t, tg2).CompileSource(context.Background(), k.Source)
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

// TestRetargetDeterministic: a restored target is a second retarget of
// the stored source, so compiled output survives the round trip only if
// independent retargets of one model agree — the same template base, and
// the same execution condition on every template.
func TestRetargetDeterministic(t *testing.T) {
	for _, model := range []string{"demo", "tms320c25"} {
		tg1, _ := retarget(t, model)
		tg2, _ := retarget(t, model)
		if s1, s2 := tg1.Base.String(), tg2.Base.String(); s1 != s2 {
			t.Fatalf("%s: independent retargets build different template bases:\n%s\n---\n%s", model, s1, s2)
		}
		same := sameFunction(tg1.Base.BDD, tg2.Base.BDD)
		for i, tm := range tg1.Base.Templates {
			if !same(tm.Cond.Static, tg2.Base.Templates[i].Cond.Static) {
				t.Errorf("%s: template %d: conditions differ between independent retargets", model, tm.ID)
			}
		}
	}
}

// sameFunction compares BDDs of two managers: canonical ROBDDs denote the
// same function exactly when they have the same shape over the same
// variable names.
func sameFunction(m1, m2 *bdd.Manager) func(a, b bdd.Node) bool {
	memo := map[[2]bdd.Node]bool{}
	var same func(a, b bdd.Node) bool
	same = func(a, b bdd.Node) bool {
		if a.IsLeaf() || b.IsLeaf() {
			return a.IsLeaf() && b.IsLeaf() && m1.Tautology(a) == m2.Tautology(b)
		}
		k := [2]bdd.Node{a, b}
		if v, ok := memo[k]; ok {
			return v
		}
		va, alo, ahi := m1.Top(a)
		vb, blo, bhi := m2.Top(b)
		v := m1.VarName(va) == m2.VarName(vb) && same(alo, blo) && same(ahi, bhi)
		memo[k] = v
		return v
	}
	return same
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
	// Checksum-valid frames whose key does not address their contents, or
	// whose options name a rule Target could not resolve.
	wrongKey, unknownRule := *a, *a
	wrongKey.Model += " "
	unknownRule.Options.Rules = append(slices.Clone(a.Options.Rules), "custom")
	unknownRule.Key = key(unknownRule.Model, unknownRule.Options)
	for _, bad := range []*Artifact{&wrongKey, &unknownRule} {
		payload, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(frame(payload)); err == nil {
			t.Fatalf("artifact with options %s and key %s accepted", bad.Options, bad.Key)
		}
	}
}

// TestOptionsRoundTrip: the options an artifact restores with address the
// same key as the options it was created with, including ones that differ
// from the defaults, such as a route limit.
func TestOptionsRoundTrip(t *testing.T) {
	mdl, _ := models.Get("tanenbaum")
	ext := rewrite.DefaultOptions()
	ext.Rules = ext.Rules[1:]
	ext.Commutativity = false
	for _, opts := range []core.RetargetOptions{
		{},
		{NoExtension: true},
		{Extension: &ext},
		{ISE: ise.Options{MSBFirstVars: true, MaxTemplates: 500, MaxAlts: 64}},
	} {
		tg, err := core.RetargetContext(context.Background(), mdl, opts)
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(tg, mdl, opts)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := a.Options.retarget()
		if err != nil {
			t.Fatal(err)
		}
		if Key(mdl, restored) != a.Key || a.Key != Key(mdl, opts) {
			t.Errorf("%s: restored options address a different key", a.Options)
		}
	}
}

// TestNewRejectsUnknownRule: a rule outside the standard library has no
// name Target could resolve, so it cannot be stored.
func TestNewRejectsUnknownRule(t *testing.T) {
	tg, mdl := retarget(t, "tanenbaum")
	ext := rewrite.DefaultOptions()
	ext.Rules = append(ext.Rules, rewrite.Rule{Name: "custom"})
	if _, err := New(tg, mdl, core.RetargetOptions{Extension: &ext}); err == nil {
		t.Fatal("artifact with a rule outside the standard library created")
	}
}

// TestTargetRecoversGrammarFault: Target retargets, so a panic while
// lowering a rule must come back as an error from the retarget path's
// phase boundary.
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
// payloads pass the checksum.
func frame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return fmt.Appendf(nil, "%s %d %x\n%s", magic, FormatVersion, sum, payload)
}

// FuzzArtifactTarget mutates a valid tanenbaum artifact's payload (its
// MDL source and options) and re-frames it with a correct checksum:
// Decode followed by Target on anything that decodes must return an
// error or a target, never panic.
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
