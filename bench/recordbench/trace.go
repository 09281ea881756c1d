package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/artifact"
	"repro/internal/asm"
	"repro/internal/bind"
	"repro/internal/burs"
	"repro/internal/cfront"
	"repro/internal/code"
	"repro/internal/codegen"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/hdl"
	"repro/internal/ir"
	"repro/internal/ise"
	"repro/internal/models"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rcache"
	"repro/internal/rewrite"
)

// replayCount is how many seeded inputs the traced run replays per
// workload: every compile program once, or each retarget model six or
// seven times.
const replayCount = corpusSize

// replay is the traced run of one workload: the workload's seeded inputs,
// sent one at a time.  For each input it calls every layer's public
// function in-process on the same input, each call in a harness-side span
// under one request span, and then sends the input to recordd.  Nothing
// inside the program is traced.
type replay struct {
	r      *runner
	tracer *obs.Tracer
	sess   *asm.Session         // compile: one encoding session for the replay
	times  map[string][]float64 // µs per call, by layer
	counts map[string][]float64 // work per call, by count metric
	wins   window               // the service calls, checked like the load's
}

// timed runs f in a span named after the layer and records its duration.
func (rp *replay) timed(scope *obs.Scope, layer string, f func() error) (float64, error) {
	sp, _ := scope.Start(layer)
	start := time.Now()
	err := f()
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	sp.End()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", layer, err)
	}
	rp.times[layer] = append(rp.times[layer], us)
	return us, nil
}

func (rp *replay) count(name string, v float64) { rp.counts[name] = append(rp.counts[name], v) }

// step is one layer's public call on the current input.
type step struct {
	layer string
	run   func() error
}

// timedSteps runs the steps in order, each timed in its own span, and
// returns their summed time.
func (rp *replay) timedSteps(scope *obs.Scope, steps []step) (float64, error) {
	total := 0.0
	for _, s := range steps {
		us, err := rp.timed(scope, s.layer, s.run)
		if err != nil {
			return 0, err
		}
		total += us
	}
	return total, nil
}

// run replays the inputs and returns the per-layer metrics.  loadFrom and
// loadTo are the /metrics scrapes around the measured window of the
// load, loadOps its request count, and setupTo the scrape before warm-up.
func (rp *replay) run(ctx context.Context, setupTo, loadFrom, loadTo scrape, loadOps int) (map[string]float64, error) {
	r := rp.r
	rc := newClient(r.srv.base)
	s := r.p.stream("replay")
	var cache *rcache.Cache
	if !r.p.w.retarget {
		rp.sess = r.ref.compiler.AcquireSession()
		defer r.ref.compiler.ReleaseSession(rp.sess)
	} else {
		// Cold replays fill a private store; churn replays read the
		// daemon's, whose memory tier is as small as the daemon's.
		dir, size := filepath.Join(r.dir, r.p.w.name+"-replay-store"), 0
		if !r.p.w.cold {
			dir, size = r.srv.store, r.p.w.cacheSize
		}
		var err error
		if cache, err = rcache.New(rcache.Options{Dir: dir, MaxEntries: size}); err != nil {
			return nil, err
		}
	}
	// derived holds per-input values of metrics computed from several
	// measurements of the same input.
	derived := map[string][]float64{}
	prev, err := r.srv.metrics(ctx)
	if err != nil {
		return nil, err
	}
	for i := 0; i < replayCount; i++ {
		q := s.next()
		root, scope := obs.NewScope(nil, rp.tracer).Start(r.p.w.name, obs.KV("input", i))
		var inproc float64 // what the in-process layers took on this input
		switch {
		case !r.p.w.retarget:
			inproc, err = rp.compile(scope, q)
		case r.p.w.cold:
			var layers float64
			if layers, inproc, err = rp.retarget(ctx, scope, cache, q); err == nil {
				derived["rcache.store_us"] = append(derived["rcache.store_us"], inproc-layers)
			}
		default:
			var mem float64
			if inproc, mem, err = rp.storeRead(ctx, scope, cache, q); err == nil {
				derived["rcache.disk_hit_us"] = append(derived["rcache.disk_hit_us"], inproc)
				derived["rcache.mem_hit_us"] = append(derived["rcache.mem_hit_us"], mem)
			}
		}
		if err != nil {
			root.End()
			return nil, fmt.Errorf("traced %s input %d: %w", r.p.w.name, i, err)
		}
		us, sendErr := rp.timed(scope, "rclient.request", func() error { return r.send(ctx, rc, q) })
		root.End()
		// recordd's own handler time for this one request, from its phase
		// histogram; the scrape runs outside the request span.
		cur, err := r.srv.metrics(ctx)
		if err != nil {
			return nil, err
		}
		handler := 0.0
		for _, ph := range []string{"retarget", "compile", "encode"} {
			handler += delta(prev, cur, "record_recordd_phase_seconds_sum", `phase="`+ph+`"`) * 1e6
		}
		prev = cur
		rp.wins.count(sendErr)
		if sendErr != nil {
			continue
		}
		derived["recordd.handler_us"] = append(derived["recordd.handler_us"], handler)
		derived["recordd.transport_us"] = append(derived["recordd.transport_us"], us-handler)
		derived["service.overhead_us"] = append(derived["service.overhead_us"], us-inproc)
	}

	out := map[string]float64{}
	for layer, v := range rp.times {
		if layer != "rcache.get" { // reported split by outcome, via derived
			out[layer+"_us"] = median(v)
		}
	}
	for name, v := range derived {
		out[name] = median(v)
	}
	for name, v := range rp.counts {
		out[name] = mean(v)
	}
	if !r.p.w.retarget {
		out["code_words"] = float64(r.ref.codeWords)
	}
	ops := float64(loadOps)
	out["rcache.mem_hit_ratio"] = delta(loadFrom, loadTo, "record_rcache_hits_total", `tier="mem"`) / ops
	out["rcache.disk_hit_ratio"] = delta(loadFrom, loadTo, "record_rcache_hits_total", `tier="disk"`) / ops
	out["rcache.evictions_per_op"] = delta(loadFrom, loadTo, "record_rcache_evictions_total") / ops
	out["qos.coalesced"] = delta(setupTo, loadTo, "record_recordd_qos_coalesced_total")
	out["qos.shed"] = delta(setupTo, loadTo, "record_recordd_shed_total")
	for _, m := range layerMetrics {
		if _, ok := out[m.name]; !ok {
			out[m.name] = 0 // a layer this workload never reaches
		}
	}
	return out, nil
}

// compile runs the compile pipeline in-process the way core.Compiler does,
// listing included as recordd renders it per /v1/compile, and returns the
// summed layer time.  The words must match the reference.
//
// A loaded recordd compiles through pooled encoding sessions whose
// operation memos have seen the program before, so the pipeline runs once
// untimed on the replay's session and then again under the spans.
func (rp *replay) compile(scope *obs.Scope, q request) (float64, error) {
	prog, ref := rp.r.p.corpus[q.prog], rp.r.ref
	tg, sess := ref.compiler.Target(), rp.sess
	var (
		irp      *ir.Program
		b        *bind.Binding
		ets      []*bind.ET
		raw, seq *code.Seq
		prg      *code.Program
	)
	steps := []step{
		{"cfront.parse", func() (err error) { irp, err = cfront.Parse(prog.src); return }},
		{"bind.lower", func() (err error) {
			if b, err = bind.Bind(irp, tg.Net); err == nil {
				ets, err = b.LowerProgram(irp)
			}
			return
		}},
		{"codegen.select", func() (err error) { raw, err = codegen.New(tg.Grammar, tg.Parser, b).Compile(ets); return }},
		{"opt.peephole", func() error { seq, _ = opt.Optimize(raw); return nil }},
		{"compact.pack", func() (err error) { prg, err = compact.Compact(seq, sess, compact.Options{}); return }},
		{"compact.verify", func() error { return compact.Verify(seq, prg, sess) }},
		{"asm.encode", func() (err error) { _, err = sess.EncodeProgram(prg); return }},
		{"asm.listing", func() error { _ = tg.Encoder.Listing(prg); return nil }},
	}
	warm, _ := scope.Start("warm-up, untimed")
	for _, s := range steps {
		if err := s.run(); err != nil {
			warm.End()
			return 0, fmt.Errorf("%s: %w", s.layer, err)
		}
	}
	warm.End()
	total, err := rp.timedSteps(scope, steps)
	if err != nil {
		return 0, err
	}
	words := make([]uint64, len(prg.Words))
	for i, w := range prg.Words {
		words[i] = w.Bits
	}
	if !slices.Equal(words, ref.words[q.prog]) {
		return 0, fmt.Errorf("%s n=%d: in-process layers disagree with the reference words", prog.kernel, prog.n)
	}
	rp.count("codegen.rts", float64(raw.Len()))
	rp.count("opt.rts_removed", float64(raw.Len()-seq.Len()))
	rp.count("compact.rts_per_word", float64(seq.Len())/float64(prg.Len()))
	return total, nil
}

// retarget runs the retarget pipeline in-process the way
// core.RetargetContext does, encodes the artifact, and then times a
// GetContext miss on the same input.  It returns the layers' summed time
// and the miss's time; the miss must store the very bytes the layers
// encoded.
func (rp *replay) retarget(ctx context.Context, scope *obs.Scope, cache *rcache.Cache, q request) (layers, get float64, err error) {
	var (
		model  *hdl.Model
		net    *netlist.Netlist
		res    *ise.Result
		g      *grammar.Grammar
		parser *burs.Parser
		enc    *asm.Encoder
		data   []byte
	)
	layers, err = rp.timedSteps(scope, []step{
		{"hdl.parse", func() (err error) { model, err = hdl.ParseAndCheck(q.mdl); return }},
		{"netlist.elaborate", func() (err error) { net, err = netlist.Elaborate(model); return }},
		{"ise.extract", func() (err error) {
			if res, err = ise.Extract(net, ise.Options{}); err == nil {
				rp.count("ise.templates", float64(res.Base.Len()))
			}
			return
		}},
		{"rewrite.extend", func() error { rewrite.Extend(res.Base, rewrite.DefaultOptions()); return nil }},
		{"grammar.build", func() (err error) { g, err = grammar.Build(res.Base, grammar.SpecFromNetlist(net)); return }},
		{"burs.parser", func() error { parser = burs.NewParser(g); return nil }},
		{"asm.freeze", func() error {
			var background []string
			for _, st := range net.Seq {
				if st.PC {
					background = append(background, st.QName())
				}
			}
			enc = asm.NewEncoder(res.Vars, res.Base, background...)
			enc.Freeze()
			return nil
		}},
		{"artifact.encode", func() error {
			t := &core.Target{Name: net.Name, Model: model, Net: net, ISE: res, Base: res.Base,
				Grammar: g, Parser: parser, Encoder: enc}
			t.Stats.Extracted = res.Stats.Templates
			t.Stats.Templates = res.Base.Len()
			t.Stats.GrammarSz = g.Stats()
			t.Stats.ISEDetails = res.Stats
			a, err := artifact.New(t, q.mdl, core.RetargetOptions{})
			if err == nil {
				data, err = a.Encode()
			}
			return err
		}},
	})
	if err != nil {
		return 0, 0, err
	}
	if want := rp.r.ref.templates[q.model]; res.Base.Len() != want {
		return 0, 0, fmt.Errorf("%s: %d templates, want %d", q.model, res.Base.Len(), want)
	}
	rp.count("grammar.rules", float64(len(g.Rules)))
	rp.count("artifact.bytes", float64(len(data)))

	var entry *rcache.Entry
	var outcome rcache.Outcome
	get, err = rp.timed(scope, "rcache.get", func() (err error) {
		entry, outcome, err = cache.GetContext(ctx, q.mdl, core.RetargetOptions{})
		return
	})
	if err != nil {
		return 0, 0, err
	}
	if outcome != rcache.Miss {
		return 0, 0, fmt.Errorf("%s: in-process cache %q, want miss", q.model, outcome)
	}
	path := filepath.Join(rp.r.dir, rp.r.p.w.name+"-replay-store", entry.Key+".rart")
	stored, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if !bytes.Equal(stored, data) {
		return 0, 0, fmt.Errorf("%s: the layers' artifact differs from the one the cache stored", q.model)
	}
	return layers, get, os.Remove(path)
}

// storeRead decodes and restores the model's persisted artifact, then
// times two GetContext calls on the same input through a cache over the
// daemon's store: the first must be answered by the disk tier, as every
// retarget-churn request is, the second by the memory tier.  It returns
// the two times.
func (rp *replay) storeRead(ctx context.Context, scope *obs.Scope, cache *rcache.Cache, q request) (disk, mem float64, err error) {
	mdl, _ := models.Get(q.model)
	data, err := os.ReadFile(filepath.Join(rp.r.srv.store, artifact.Key(mdl, core.RetargetOptions{})+".rart"))
	if err != nil {
		return 0, 0, err
	}
	var a *artifact.Artifact
	if _, err := rp.timed(scope, "artifact.decode", func() (err error) { a, err = artifact.Decode(data); return }); err != nil {
		return 0, 0, err
	}
	if _, err := rp.timed(scope, "artifact.restore", func() error { _, err := a.Target(); return err }); err != nil {
		return 0, 0, err
	}
	get := func(want rcache.Outcome) (float64, error) {
		var outcome rcache.Outcome
		us, err := rp.timed(scope, "rcache.get", func() (err error) {
			_, outcome, err = cache.GetContext(ctx, mdl, core.RetargetOptions{})
			return
		})
		if err == nil && outcome != want {
			err = fmt.Errorf("%s: in-process cache %q, want %q", q.model, outcome, want)
		}
		return us, err
	}
	if disk, err = get(rcache.Disk); err != nil {
		return 0, 0, err
	}
	if mem, err = get(rcache.Mem); err != nil {
		return 0, 0, err
	}
	return disk, mem, nil
}
