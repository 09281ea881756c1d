package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/rclient"
	"repro/internal/resilience"
)

// reference holds the in-process answers every service response is
// checked against.
type reference struct {
	compiler  *core.Compiler // compile: the compileModel target
	words     [][]uint64     // compile: per corpus program
	codeWords int            // compile: total words over the corpus
	templates map[string]int // per model, after extension
}

// prepare computes the reference outputs in-process.  Every distinct
// compile-corpus program is also run on the netlist simulator and checked
// against the IR interpreter, so the reference itself is known correct.
func prepare(ctx context.Context, p *plan) (*reference, error) {
	ref := &reference{templates: map[string]int{}}
	names := []string{compileModel}
	if p.w.retarget {
		names = retargetModels
	}
	for _, name := range names {
		mdl, _ := models.Get(name)
		tg, err := core.RetargetContext(ctx, mdl, core.RetargetOptions{})
		if err != nil {
			return nil, fmt.Errorf("reference retarget %s: %w", name, err)
		}
		ref.templates[name] = tg.Base.Len()
		if name == compileModel && !p.w.retarget {
			if ref.compiler, err = core.NewCompiler(tg, core.Config{}); err != nil {
				return nil, err
			}
		}
	}
	for _, prog := range p.corpus {
		res, err := ref.compiler.CompileSource(ctx, prog.src)
		if err != nil {
			return nil, fmt.Errorf("reference compile %s n=%d: %w", prog.kernel, prog.n, err)
		}
		if err := ref.compiler.Target().CheckAgainstOracle(res); err != nil {
			return nil, fmt.Errorf("reference %s n=%d fails its oracle: %w", prog.kernel, prog.n, err)
		}
		ref.words = append(ref.words, res.Words())
		ref.codeWords += res.CodeLen()
	}
	return ref, nil
}

// runner drives one workload against one recordd.
type runner struct {
	p     *plan
	ref   *reference
	bin   string   // recordd binary
	dir   string   // scratch directory for artifact stores
	srv   *recordd // the daemon setup last started
	key   string   // compile: artifact key of compileModel
	probe *probe
}

// newClient returns a client that owns one connection, tries each request
// once and has no breaker, so every failure counts.
func newClient(base string) *rclient.Client {
	c := rclient.NewClient(base)
	c.HTTP = &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	c.Policy = resilience.Policy{MaxAttempts: 1}
	c.Breaker = nil
	return c
}

// send issues one request and checks the response against the reference:
// compiled words byte for byte, template counts, and the cache tier the
// workload's name promises.
func (r *runner) send(ctx context.Context, rc *rclient.Client, q request) error {
	if !r.p.w.retarget {
		prog := r.p.corpus[q.prog]
		res, err := rc.Compile(ctx, rclient.ModelRef{Key: r.key}, prog.src, rclient.CompileOptions{})
		switch {
		case err != nil:
			return fmt.Errorf("compile %s n=%d: %w", prog.kernel, prog.n, err)
		case res.Cache != "hit":
			return fmt.Errorf("compile %s n=%d: cache %q, want a memory hit", prog.kernel, prog.n, res.Cache)
		case !slices.Equal(res.Words, r.ref.words[q.prog]):
			return fmt.Errorf("compile %s n=%d: words differ from the in-process reference", prog.kernel, prog.n)
		}
		return nil
	}
	ref := rclient.ModelRef{ModelName: q.model}
	if r.p.w.cold {
		ref = rclient.ModelRef{Model: q.mdl}
	}
	res, err := rc.Retarget(ctx, ref)
	if err != nil {
		return fmt.Errorf("retarget %s: %w", q.model, err)
	}
	if r.p.w.cold {
		// The revision is never asked for again; deleting its artifact
		// keeps the store from growing through the run.
		if err := os.Remove(filepath.Join(r.srv.store, res.Key+".rart")); err != nil {
			return fmt.Errorf("retarget %s: %w", q.model, err)
		}
	}
	switch want := r.ref.templates[q.model]; {
	case r.p.w.cold && res.Cache != "miss":
		return fmt.Errorf("retarget %s: cache %q, want miss", q.model, res.Cache)
	case !r.p.w.cold && res.Cache != "hit" && res.Cache != "hit-disk":
		return fmt.Errorf("retarget %s: cache %q, want a memory or disk hit", q.model, res.Cache)
	case res.Templates != want:
		return fmt.Errorf("retarget %s: %d templates, want %d", q.model, res.Templates, want)
	}
	return nil
}

// setup starts a fresh recordd on an empty store, brings it to the
// workload's warm state (compile holds the compile model's key,
// retarget-churn has every model persisted) and sends one checked pass over
// the workload's distinct inputs, so pools and memos recordd fills lazily
// are filled inside the timed setup rather than the measured window.
func (r *runner) setup(ctx context.Context, i int) (*recordd, time.Duration, error) {
	store := filepath.Join(r.dir, fmt.Sprintf("%s-store-%d", r.p.w.name, i))
	start := time.Now()
	srv, err := startRecordd(r.bin, store, r.p.w.cacheSize)
	if err != nil {
		return nil, 0, err
	}
	r.srv = srv
	rc := newClient(srv.base)
	persist := func(name string) (string, error) {
		res, err := rc.Retarget(ctx, rclient.ModelRef{ModelName: name})
		switch {
		case err != nil:
			return "", fmt.Errorf("setup retarget %s: %w", name, err)
		case res.Cache != "miss":
			return "", fmt.Errorf("setup retarget %s: cache %q on an empty store", name, res.Cache)
		}
		return res.Key, nil
	}
	switch {
	case !r.p.w.retarget:
		r.key, err = persist(compileModel)
	case !r.p.w.cold:
		for _, m := range retargetModels {
			if _, err = persist(m); err != nil {
				break
			}
		}
	}
	if err == nil {
		for _, q := range r.p.stream(fmt.Sprintf("setup-%d", i)).pass() {
			if err = r.send(ctx, rc, q); err != nil {
				err = fmt.Errorf("setup pass: %w", err)
				break
			}
		}
	}
	d := time.Since(start)
	if err != nil {
		srv.stop()
		return nil, 0, err
	}
	return srv, d, nil
}

// window is what a closed loop measured.
type window struct {
	lat       []float64 // latency of each request, ms
	attempted int
	failed    int
	errs      []string // the first few failures
}

const maxErrs = 5

// count records one checked request.
func (w *window) count(err error) {
	w.attempted++
	if err != nil {
		w.failed++
		if len(w.errs) < maxErrs {
			w.errs = append(w.errs, err.Error())
		}
	}
}

func (w *window) add(o window) {
	w.lat = append(w.lat, o.lat...)
	w.attempted += o.attempted
	w.failed += o.failed
	for _, e := range o.errs {
		if len(w.errs) < maxErrs {
			w.errs = append(w.errs, e)
		}
	}
}

// drive runs the closed loop for d: the client sends the stream's next
// request only after the previous one returned.
func (r *runner) drive(ctx context.Context, rc *rclient.Client, s *stream, d time.Duration) window {
	until := time.Now().Add(d)
	var w window
	for time.Now().Before(until) {
		q := s.next()
		t := time.Now()
		err := r.send(ctx, rc, q)
		w.lat = append(w.lat, float64(time.Since(t).Nanoseconds())/1e6)
		w.count(err)
	}
	return w
}

// numSlices is how many equal parts the measured window is split into.
// Throughput, latency and CPU per request are computed per slice and the
// median over the slices is reported, so a stall of the shared host that
// covers a few slices moves no reported number.
const numSlices = 10

// slice is one part of the measured window.
type slice struct {
	lat    []float64     // latency of each request, ms
	secs   float64       // wall time the slice ran
	cpu    time.Duration // recordd CPU time since the previous slice ended
	factor float64       // host factor: mean of the probe bursts around the slice
}

// measure runs the measured window as numSlices slices, with a probe burst
// before the first slice and after each one, and returns the window and its
// slices.  The daemon is idle during a burst: the client has no request in
// flight.
func (r *runner) measure(ctx context.Context, rc *rclient.Client, s *stream, d time.Duration) (window, []slice, error) {
	var win window
	parts := make([]slice, numSlices)
	before := r.probe.factor()
	cpu0, err := r.srv.cpu()
	if err != nil {
		return win, nil, err
	}
	for k := range parts {
		sl := &parts[k]
		start := time.Now()
		w := r.drive(ctx, rc, s, d/numSlices)
		sl.secs = time.Since(start).Seconds()
		cpu1, err := r.srv.cpu()
		if err != nil {
			return win, nil, err
		}
		sl.lat, sl.cpu, cpu0 = w.lat, cpu1-cpu0, cpu1
		after := r.probe.factor()
		sl.factor, before = (before+after)/2, after
		win.add(w)
	}
	if len(win.lat) == 0 {
		return win, nil, fmt.Errorf("no request completed in the %v measured window", d)
	}
	return win, parts, nil
}

// timing returns the window's ops_per_s, p50_ms, p90_ms and
// server_cpu_ms_per_op.  Scaled, each slice's numbers are brought to the
// reference host speed with the slice's host factor: rates multiplied by
// it, times divided.  p90 needs more samples than a slice holds, so it is
// taken over the whole window.
func timing(parts []slice, scaled bool) map[string]float64 {
	var ops, p50, cpu, all []float64
	for _, sl := range parts {
		f := 1.0
		if scaled {
			f = sl.factor
		}
		n := float64(len(sl.lat))
		ops = append(ops, n/sl.secs*f)
		if n == 0 {
			continue
		}
		lat := make([]float64, len(sl.lat))
		for i, v := range sl.lat {
			lat[i] = v / f
		}
		sort.Float64s(lat)
		p50 = append(p50, percentile(lat, 0.5))
		cpu = append(cpu, sl.cpu.Seconds()*1e3/n/f)
		all = append(all, lat...)
	}
	sort.Float64s(all)
	return map[string]float64{
		"ops_per_s":            median(ops),
		"p50_ms":               median(p50),
		"p90_ms":               percentile(all, 0.9),
		"server_cpu_ms_per_op": median(cpu),
	}
}
