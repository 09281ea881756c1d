// Package artifact is the persisted form of a retarget: the MDL source and
// the normalized retarget options, framed, checksummed and
// content-addressed.
//
// A retarget product is a pure function of (MDL source, options), and on
// the bundled models rebuilding it is cheaper than loading any encoding
// of it: the paper's table 3 measures CPU minutes per model, this
// pipeline milliseconds.  So an artifact stores exactly what its content
// address covers and nothing derived from it, and Target restores a
// working core.Target by running core.RetargetContext on the stored
// source with the stored options.  The disk tier (internal/rcache) keeps
// artifacts so a by-key lookup can still find a model's source after a
// restart or an eviction.
//
// The content address is SHA-256 over the format version, the options
// fingerprint and the MDL source: computable without running the
// pipeline, which is what makes cache lookups free.  Decode recomputes it
// from the stored source and options, so every stored byte is checked by
// the address.  Determinism of the product itself — independent retargets
// of one model yield the same templates and conditions — is what makes a
// restored target compile byte-identical code.
package artifact

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/ise"
	"repro/internal/rewrite"
)

// FormatVersion is bumped whenever the wire form changes; decoders reject
// other versions (a stale cache file is a miss, not an error).
//
// Version 4 stores only the MDL source and the normalized options; the
// template base, BDD conditions and encoding tables of versions 2 and 3
// are rebuilt by retargeting.
const FormatVersion = 4

// magic heads every encoded artifact, followed by the payload checksum.
const magic = "recordart"

// Options are the retarget options the product depends on, normalized
// the way core.RetargetContext resolves them so that equivalent option
// sets share a content address.  Rules are names in
// rewrite.StandardLibrary, in application order.
type Options struct {
	MaxAlts       int      `json:"ise_max_alts"`
	MaxTemplates  int      `json:"ise_max_templates"`
	MSBFirstVars  bool     `json:"ise_msb_first"`
	NoExtension   bool     `json:"no_extension"`
	Commutativity bool     `json:"ext_commutativity"`
	MaxVariants   int      `json:"ext_max_variants"`
	Rules         []string `json:"ext_rules"`
}

// Artifact is the persisted retarget: its content address and the inputs
// that address covers.
type Artifact struct {
	Format  int     `json:"format"`
	Key     string  `json:"key"`
	Options Options `json:"options"`
	Model   string  `json:"model"`
}

// normalize keeps the product-relevant retargeting options.  Reporter,
// Budget and Obs are excluded: they affect diagnostics and effort, not
// (absent budget exhaustion) the product.
func normalize(opts core.RetargetOptions) Options {
	iseOpts := opts.ISE
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
	o := Options{
		MaxAlts:       iseOpts.MaxAlts,
		MaxTemplates:  iseOpts.MaxTemplates,
		MSBFirstVars:  iseOpts.MSBFirstVars,
		NoExtension:   opts.NoExtension,
		Commutativity: ext.Commutativity,
		MaxVariants:   ext.MaxVariantsPerTemplate,
		Rules:         make([]string, len(ext.Rules)),
	}
	for i, r := range ext.Rules {
		o.Rules[i] = r.Name
	}
	return o
}

// String renders the options canonically; it is the fingerprint the
// content address hashes.
func (o Options) String() string {
	return fmt.Sprintf(
		"ise.maxalts=%d;ise.maxtemplates=%d;ise.msbfirst=%t;noext=%t;ext.comm=%t;ext.maxvariants=%d;ext.rules=%s",
		o.MaxAlts, o.MaxTemplates, o.MSBFirstVars, o.NoExtension,
		o.Commutativity, o.MaxVariants, strings.Join(o.Rules, ","))
}

// retarget turns the options back into core.RetargetOptions, resolving
// rule names against rewrite.StandardLibrary.
func (o Options) retarget() (core.RetargetOptions, error) {
	lib := rewrite.StandardLibrary()
	rules := make([]rewrite.Rule, len(o.Rules))
	for i, name := range o.Rules {
		j := slices.IndexFunc(lib, func(r rewrite.Rule) bool { return r.Name == name })
		if j < 0 {
			return core.RetargetOptions{}, fmt.Errorf("rule %q is not in the standard library", name)
		}
		rules[i] = lib[j]
	}
	return core.RetargetOptions{
		ISE:         ise.Options{MaxAlts: o.MaxAlts, MaxTemplates: o.MaxTemplates, MSBFirstVars: o.MSBFirstVars},
		Extension:   &rewrite.Options{Commutativity: o.Commutativity, Rules: rules, MaxVariantsPerTemplate: o.MaxVariants},
		NoExtension: o.NoExtension,
	}, nil
}

// Fingerprint renders the product-relevant retargeting options as a
// canonical string; equivalent option sets share a fingerprint.
func Fingerprint(opts core.RetargetOptions) string {
	return normalize(opts).String()
}

// Key returns the content address of the artifact for (mdlSource, opts):
// SHA-256 over the format version, the options fingerprint and the MDL
// source.  It never runs the pipeline.
func Key(mdlSource string, opts core.RetargetOptions) string {
	return key(mdlSource, normalize(opts))
}

func key(mdlSource string, o Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s/v%d\n%s\n", magic, FormatVersion, o)
	h.Write([]byte(mdlSource))
	return hex.EncodeToString(h.Sum(nil))
}

// New captures a retarget as an artifact.  t must be the Target retargeted
// from mdlSource and opts; a partial (budget-degraded) product is refused,
// and so is any rule not in rewrite.StandardLibrary, which Target could
// not resolve.
func New(t *core.Target, mdlSource string, opts core.RetargetOptions) (*Artifact, error) {
	if !Cacheable(t) {
		return nil, fmt.Errorf("artifact: target is missing or partial")
	}
	o := normalize(opts)
	if _, err := o.retarget(); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return &Artifact{Format: FormatVersion, Key: key(mdlSource, o), Options: o, Model: mdlSource}, nil
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

// Decode parses and verifies an encoded artifact.  Any framing, checksum,
// version or key mismatch returns an error, as does a rule name Target
// could not resolve; callers (the cache) treat that as corrupt bytes.
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
	if _, err := a.Options.retarget(); err != nil {
		return nil, fmt.Errorf("artifact: decode: %w", err)
	}
	if key(a.Model, a.Options) != a.Key {
		return nil, fmt.Errorf("artifact: decode: key %s does not address the stored model and options", a.Key)
	}
	return a, nil
}

// Target restores a working compiler from the artifact by retargeting its
// source with its options.  The retarget path's phase boundaries apply,
// so a fault while retargeting is an error, never a crash.
func (a *Artifact) Target() (*core.Target, error) {
	opts, err := a.Options.retarget()
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return core.RetargetContext(context.TODO(), a.Model, opts)
}

// Cacheable reports whether t's retarget product may be stored under its
// content address.  A run whose budget expired mid-extraction (Partial) is
// input-independent only by accident — the same key retried with a larger
// budget must not hit the degraded product.
func Cacheable(t *core.Target) bool {
	return t != nil && !t.Stats.ISEDetails.Partial
}
