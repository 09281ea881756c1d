// Package artifact serializes the expensive retarget product — the
// extended template base, its execution conditions and model metadata —
// into a versioned, deterministic, content-addressed artifact.
//
// Retargeting is automatic but not free (the paper's table 3 measures
// minutes of CPU per processor model), while the artifact is a pure
// function of the MDL source and the retargeting options.  Encoding that
// product once and decoding it into a working core.Target lets a cache
// (internal/rcache) and a compile service (cmd/recordd) amortize the
// expensive phases — ISE and template extension — across every program
// compiled for the same model.  The cheap phases are re-run on decode: the
// frontend (parse + elaborate) rebuilds the netlist the simulator and
// binder need, and grammar construction and parser generation rebuild the
// tree parser from the restored template base, through the same
// grammar.Build and burs.NewParser the retarget path uses.
//
// Determinism: encoding the same Target twice, or Targets from two
// independent Retarget runs of the same model, yields byte-identical
// artifacts.  BDD nodes are renumbered in template order by bdd.Exporter,
// and wall-clock durations are not stored.  The content address is SHA-256
// over the format version, an options fingerprint and the MDL source —
// computable without running the pipeline, which is what makes cache
// lookups free.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/bdd"
	"repro/internal/burs"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grammar"
	"repro/internal/hdl"
	"repro/internal/ise"
	"repro/internal/netlist"
	"repro/internal/rewrite"
	"repro/internal/rtl"
)

// FormatVersion is bumped whenever the wire form changes; decoders reject
// other versions (a stale cache file is a miss, not an error).
//
// Version 2 added the frozen encoding tables (per-template solo word
// conditions) so decoded targets are born frozen without re-running the
// freeze-time conjunction sweep.  Version 3 dropped the tree grammar and
// BURS match tables, which decode now rebuilds from the template base.
const FormatVersion = 3

// magic heads every encoded artifact, followed by the payload checksum.
const magic = "recordart"

// TemplateEnc is the wire form of one RT template.  Static and Solo are
// bdd.Exporter serial ids: the raw execution condition and the frozen
// single-instruction word condition Freeze baked from it.
type TemplateEnc struct {
	ID        int         `json:"id"`
	Dest      string      `json:"dest"`
	DestPort  bool        `json:"dest_port,omitempty"`
	DestAddr  *rtl.Expr   `json:"dest_addr,omitempty"`
	Src       *rtl.Expr   `json:"src"`
	Static    int         `json:"static"`
	Solo      int         `json:"solo"`
	Dynamic   []*rtl.Expr `json:"dynamic,omitempty"`
	Width     int         `json:"width"`
	Synthetic bool        `json:"synthetic,omitempty"`
}

// BDDTable carries the shared condition universe: the manager's variable
// names in declaration order (indices must match ise.VarMap) and the
// renumbered node table.
type BDDTable struct {
	Names []string         `json:"names"`
	Nodes []bdd.SerialNode `json:"nodes"`
}

// VarsEnc is the wire form of ise.VarMap (minus the manager).
type VarsEnc struct {
	InsnVars []int            `json:"insn_vars"`
	ModeVars map[string][]int `json:"mode_vars,omitempty"`
}

// Artifact is the serialized retarget product: everything Target needs
// beyond what grammar.Build and burs.NewParser derive from the templates.
type Artifact struct {
	Format    int           `json:"format"`
	Key       string        `json:"key"`
	Name      string        `json:"name"`
	Options   string        `json:"options"`
	Model     string        `json:"model"`
	BDD       BDDTable      `json:"bdd"`
	Vars      VarsEnc       `json:"vars"`
	Templates []TemplateEnc `json:"templates"`
	// Stats are the extraction counters; RetargetStats' other counters
	// derive from them and from the restored grammar, and its durations
	// are measurements that would break byte-determinism.
	Stats ise.Stats `json:"stats"`
}

// Fingerprint renders the product-relevant retargeting options as a
// canonical string.  Reporter and Budget are excluded: they affect
// diagnostics and effort, not (absent budget exhaustion) the product.
// ISE limits are normalized the way core.Retarget resolves them so that
// equivalent option sets share a fingerprint.
func Fingerprint(opts core.RetargetOptions) string {
	iseOpts := opts.ISE
	if iseOpts.MaxAlts <= 0 && opts.Budget != nil && opts.Budget.MaxRoutes > 0 {
		iseOpts.MaxAlts = opts.Budget.MaxRoutes
	}
	def := ise.DefaultOptions()
	if iseOpts.MaxAlts <= 0 {
		iseOpts.MaxAlts = def.MaxAlts
	}
	if iseOpts.MaxTemplates <= 0 {
		iseOpts.MaxTemplates = def.MaxTemplates
	}
	ext := rewrite.DefaultOptions()
	if opts.Extension != nil {
		ext = *opts.Extension
	}
	if ext.MaxVariantsPerTemplate <= 0 {
		ext.MaxVariantsPerTemplate = rewrite.DefaultOptions().MaxVariantsPerTemplate
	}
	ruleNames := make([]string, len(ext.Rules))
	for i, r := range ext.Rules {
		ruleNames[i] = r.Name
	}
	return fmt.Sprintf(
		"ise.maxalts=%d;ise.maxtemplates=%d;ise.msbfirst=%t;noext=%t;ext.comm=%t;ext.maxvariants=%d;ext.rules=%s",
		iseOpts.MaxAlts, iseOpts.MaxTemplates, iseOpts.MSBFirstVars,
		opts.NoExtension, ext.Commutativity, ext.MaxVariantsPerTemplate,
		strings.Join(ruleNames, ","))
}

// Key returns the content address of the artifact for (mdlSource, opts):
// SHA-256 over the format version, the options fingerprint and the MDL
// source.  It never runs the pipeline.
func Key(mdlSource string, opts core.RetargetOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s/v%d\n%s\n", magic, FormatVersion, Fingerprint(opts))
	h.Write([]byte(mdlSource))
	return hex.EncodeToString(h.Sum(nil))
}

// New captures a freshly retargeted Target as an artifact.  mdlSource and
// opts must be the inputs the Target was retargeted from; they determine
// the content address.
func New(t *core.Target, mdlSource string, opts core.RetargetOptions) (*Artifact, error) {
	if t.Base == nil || t.ISE == nil || t.ISE.Vars == nil {
		return nil, fmt.Errorf("artifact: target is incomplete")
	}
	if !t.Frozen() {
		return nil, fmt.Errorf("artifact: target is not frozen (retarget always freezes; construct targets through core.Retarget)")
	}
	a := &Artifact{
		Format:  FormatVersion,
		Key:     Key(mdlSource, opts),
		Name:    t.Name,
		Options: Fingerprint(opts),
		Model:   mdlSource,
		Stats:   t.Stats.ISEDetails,
	}

	m := t.Base.BDD
	a.BDD.Names = make([]string, m.NumVars())
	for v := range a.BDD.Names {
		a.BDD.Names[v] = m.VarName(v)
	}
	ex := bdd.NewExporter()
	for _, tm := range t.Base.Templates {
		a.Templates = append(a.Templates, TemplateEnc{
			ID:        tm.ID,
			Dest:      tm.Dest,
			DestPort:  tm.DestPort,
			DestAddr:  tm.DestAddr,
			Src:       tm.Src,
			Static:    ex.Export(tm.Cond.Static),
			Solo:      ex.Export(t.Encoder.SoloCond(tm)),
			Dynamic:   tm.Cond.Dynamic,
			Width:     tm.Width,
			Synthetic: tm.Synthetic,
		})
	}
	a.BDD.Nodes = ex.Table()

	a.Vars.InsnVars = t.ISE.Vars.InsnVars
	if len(t.ISE.Vars.ModeVars) > 0 {
		a.Vars.ModeVars = t.ISE.Vars.ModeVars
	}
	return a, nil
}

// Encode renders the artifact in its wire form: a header line
// "recordart <version> <sha256-of-payload>" followed by the deterministic
// JSON payload.  The checksum makes truncated or bit-rotted cache files
// detectable before any field is trusted.
func (a *Artifact) Encode() ([]byte, error) {
	payload, err := json.Marshal(a)
	if err != nil {
		return nil, fmt.Errorf("artifact: encode: %w", err)
	}
	sum := sha256.Sum256(payload)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %d %s\n", magic, a.Format, hex.EncodeToString(sum[:]))
	b.Write(payload)
	return b.Bytes(), nil
}

// Decode parses and integrity-checks an encoded artifact.  Any framing,
// checksum, version or structural mismatch returns an error; callers (the
// cache) treat that as a miss, not a failure.
func Decode(data []byte) (*Artifact, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("artifact: decode: missing header")
	}
	var gotMagic, sumHex string
	var version int
	if _, err := fmt.Sscanf(string(data[:nl]), "%s %d %s", &gotMagic, &version, &sumHex); err != nil || gotMagic != magic {
		return nil, fmt.Errorf("artifact: decode: bad header %q", string(data[:nl]))
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("artifact: decode: format %d not supported (want %d)", version, FormatVersion)
	}
	payload := data[nl+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, fmt.Errorf("artifact: decode: payload checksum mismatch (corrupt or truncated)")
	}
	a := &Artifact{}
	if err := json.Unmarshal(payload, a); err != nil {
		return nil, fmt.Errorf("artifact: decode: %w", err)
	}
	if a.Format != FormatVersion {
		return nil, fmt.Errorf("artifact: decode: payload format %d disagrees with header", a.Format)
	}
	return a, nil
}

// Target rebuilds a working compiler from the artifact.  Templates and
// conditions come from the wire form instead of re-running ISE and
// extension; the cheap phases re-run: the frontend on the stored MDL
// source (netlist for the binder and simulator), then grammar construction
// and parser generation on the restored template base.
func (a *Artifact) Target() (*core.Target, error) {
	model, err := hdl.ParseAndCheck(a.Model)
	if err != nil {
		return nil, fmt.Errorf("artifact: stored model no longer parses: %w", err)
	}
	net, err := netlist.Elaborate(model)
	if err != nil {
		return nil, fmt.Errorf("artifact: stored model no longer elaborates: %w", err)
	}

	m := bdd.New()
	for _, name := range a.BDD.Names {
		m.DeclareVar(name)
	}
	im, err := bdd.NewImporter(m, a.BDD.Nodes)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}

	templates := make([]*rtl.Template, len(a.Templates))
	solo := make([]*bdd.Node, len(a.Templates))
	for i, te := range a.Templates {
		static, err := im.Node(te.Static)
		if err != nil {
			return nil, fmt.Errorf("artifact: template %d: %w", te.ID, err)
		}
		if solo[i], err = im.Node(te.Solo); err != nil {
			return nil, fmt.Errorf("artifact: template %d solo condition: %w", te.ID, err)
		}
		templates[i] = &rtl.Template{
			ID:        te.ID,
			Dest:      te.Dest,
			DestPort:  te.DestPort,
			DestAddr:  te.DestAddr,
			Src:       te.Src,
			Cond:      rtl.ExecCond{Static: static, Dynamic: te.Dynamic},
			Width:     te.Width,
			Synthetic: te.Synthetic,
		}
	}
	base, err := rtl.RestoreBase(m, templates)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}

	vars := &ise.VarMap{M: m, InsnVars: a.Vars.InsnVars, ModeVars: a.Vars.ModeVars}
	if vars.ModeVars == nil {
		vars.ModeVars = make(map[string][]int)
	}
	if vars.InsnWidth() != net.InsnWidth {
		return nil, fmt.Errorf("artifact: instruction width %d disagrees with elaborated model (%d)",
			vars.InsnWidth(), net.InsnWidth)
	}

	// Grammar construction runs under the recovery boundary the retarget
	// path gives it, so a fault while lowering (an armed grammar.rule
	// faultpoint included) is an error the cache quarantines, not a crash.
	var g *grammar.Grammar
	if err := diag.Capture(func() (err error) {
		g, err = grammar.Build(base, grammar.SpecFromNetlist(net))
		return err
	}); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}

	var background []string
	for _, st := range net.Seq {
		if st.PC {
			background = append(background, st.QName())
		}
	}
	enc := asm.NewEncoder(vars, base, background...)
	// Decoded targets are born frozen: the expensive solo conditions come
	// from the wire, only quiescence negations and the NOP are rebuilt.
	if err := enc.FreezeWithSolo(solo); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	t := &core.Target{
		Name:    a.Name,
		Model:   model,
		Net:     net,
		ISE:     &ise.Result{Base: base, Vars: vars, Stats: a.Stats, Net: net},
		Base:    base,
		Grammar: g,
		Parser:  burs.NewParser(g),
		Encoder: enc,
	}
	t.Stats.Extracted = a.Stats.Templates
	t.Stats.Templates = base.Len()
	t.Stats.GrammarSz = g.Stats()
	t.Stats.ISEDetails = a.Stats
	return t, nil
}

// Cacheable reports whether t's retarget product may be stored under its
// content address.  A run whose budget expired mid-extraction (Partial) is
// input-independent only by accident — the same key retried with a larger
// budget must not hit the degraded product.
func Cacheable(t *core.Target) bool {
	return t != nil && !t.Stats.ISEDetails.Partial
}
