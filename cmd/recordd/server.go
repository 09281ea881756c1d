package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/faultpoint"
	"repro/internal/ise"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/rcache"
	"repro/internal/resilience"
)

// serverConfig tunes one daemon instance.
type serverConfig struct {
	cacheDir    string
	cacheSize   int
	workers     int           // bounded worker pool for retarget/compile work
	timeout     time.Duration // per-request wall-clock budget (0 = unlimited)
	maxBDDNodes int           // per-request BDD node cap (0 = unlimited)
	maxRoutes   int           // per-request route cap (0 = phase default)
	maxBody     int64         // request body cap in bytes
	maxQueue    int           // admission bound on pool-slot waiters (0 = unlimited)
}

func (c serverConfig) withDefaults() serverConfig {
	if c.workers <= 0 {
		c.workers = 4
	}
	if c.cacheSize <= 0 {
		c.cacheSize = rcache.DefaultMaxEntries
	}
	if c.maxBody <= 0 {
		c.maxBody = 4 << 20
	}
	return c
}

// server is the recordd HTTP service: a retarget-artifact cache behind
// /v1/retarget and /v1/compile, with health and metrics endpoints.
// Targets are frozen, so compiles against one entry run genuinely in
// parallel — the worker pool bounds CPU, not correctness.
//
// Both POST routes share one request pipeline (run): decode the body,
// compute the model's content address once, take a pool slot, resolve
// the model through the cache, compile the program if the request
// carries one, render and write.  A route only picks its request type
// and its response shape.  Every response, success or refusal, is
// rendered to a wireResult and sent by write, and one table (classify)
// maps a failure to its status and wire kind.
//
// The service protects itself (internal/resilience): one FIFO pool owns
// the worker slots and sheds with 429 + Retry-After once -max-queue
// requests wait, and beginDrain flips the whole surface into refusal
// mode so shutdown finishes in-flight work and nothing is dropped
// without an explicit status.
//
// All counters and gauges live in one obs.Registry: the cache and the
// compile pipeline register their own instruments against it, the
// request-handling instruments below are the server's, and /metrics is a
// plain registry scrape — the server keeps no metric state of its own.
// Each POST request records spans into a tracer of its own (timing.go),
// and its response carries their sums by phase in Server-Timing.
type server struct {
	cfg   serverConfig
	cache *rcache.Cache

	pool *pool // worker slots + admission

	drainCh  chan struct{} // closed when draining starts
	draining atomic.Bool

	reg *obs.Registry
	scp *obs.Scope // registry-only scope for work outside any request

	gInflight     *obs.Gauge        // compiles currently executing
	gTargInflight *obs.GaugeVec     // by artifact key; series dropped at zero
	hPhase        *obs.HistogramVec // request-handling latency by phase

	gQueue      *obs.Gauge      // queued waiters
	gDraining   *obs.Gauge      // 1 while draining
	cShed       *obs.Counter    // requests shed by admission
	cDispatched *obs.Counter    // pool slots granted
	cErrors     *obs.CounterVec // error responses, by status
	cAborts     *obs.Counter    // client disconnects before a response

	// targMu serializes the zero-check-then-delete on gTargInflight so a
	// concurrent Inc cannot land between Dec and Delete.
	targMu sync.Mutex
}

func newServer(cfg serverConfig) (*server, error) {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	scp := obs.NewScope(reg, nil)
	cache, err := rcache.New(rcache.Options{Dir: cfg.cacheDir, MaxEntries: cfg.cacheSize, Obs: scp})
	if err != nil {
		return nil, err
	}
	s := &server{
		cfg:     cfg,
		cache:   cache,
		drainCh: make(chan struct{}),
		reg:     reg,
		scp:     scp,
		gInflight: reg.Gauge("record_recordd_inflight_compiles",
			"compiles currently executing"),
		gTargInflight: reg.GaugeVec("record_recordd_target_inflight_compiles",
			"compiles currently executing, by artifact key", "key"),
		hPhase: reg.HistogramVec("record_recordd_phase_seconds",
			"request-handling latency by phase", nil, "phase"),
		gQueue: reg.Gauge("record_recordd_queue_depth",
			"requests waiting for a worker-pool slot"),
		gDraining: reg.Gauge("record_recordd_draining",
			"1 while the service is draining"),
		cShed: reg.Counter("record_recordd_shed_total",
			"requests shed by admission control (429)"),
		cDispatched: reg.Counter("record_recordd_dispatched_total",
			"worker-pool slots granted"),
		cErrors: reg.CounterVec("record_recordd_errors_total",
			"error responses, by HTTP status", "status"),
		cAborts: reg.Counter("record_recordd_client_aborts_total",
			"requests whose client disconnected before a response (499-style)"),
	}
	s.pool = newPool(cfg.workers, cfg.maxQueue, s.drainCh, s.gQueue)
	reg.Gauge("record_recordd_worker_pool_size",
		"configured worker pool capacity").Set(int64(cfg.workers))
	return s, nil
}

// handler wraps the route mux in the request clock and the drain gate:
// every request but a GET starts a clock, whose breakdown its response
// carries, and once draining, every request that would start new work is
// refused with an explicit 503 so no client is dropped without a status;
// health and metrics stay readable.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.getOnly(s.handleHealthz))
	mux.HandleFunc("/metrics", s.getOnly(s.handleMetrics))
	mux.HandleFunc("/v1/retarget", s.serve(retargetRoute))
	mux.HandleFunc("/v1/compile", s.serve(compileRoute))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			r = r.WithContext(withClock(r.Context(), s.reg))
			if s.draining.Load() {
				s.write(w, r, errWire(&resilience.DrainingError{After: time.Second}))
				return
			}
		}
		mux.ServeHTTP(w, r)
	})
}

// getOnly refuses every method but GET with 405.
func (s *server) getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			s.write(w, r, errWire(withStatus(http.StatusMethodNotAllowed, errors.New("use GET"))))
			return
		}
		h(w, r)
	}
}

// obsFrom returns the scope of the request's clock when the context has
// one, else the server's registry-only scope — pipeline metrics land in
// the same registry either way.
func (s *server) obsFrom(ctx context.Context) *obs.Scope {
	if c := clockFrom(ctx); c != nil {
		return c.scope
	}
	return s.scp
}

// beginDrain flips the service into draining mode: /healthz reports
// draining, new work is refused, and requests queued for a pool slot are
// released with an explicit 503 instead of waiting out the shutdown.
func (s *server) beginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.gDraining.Set(1)
		close(s.drainCh)
	}
}

// trackCompile bumps the global and per-target in-flight gauges; the
// returned func undoes both, retiring the per-target series when its last
// compile finishes so /metrics does not accumulate dead keys.
func (s *server) trackCompile(key string) func() {
	s.gInflight.Inc()
	s.targMu.Lock()
	s.gTargInflight.With(key).Inc()
	s.targMu.Unlock()
	return func() {
		s.gInflight.Dec()
		s.targMu.Lock()
		g := s.gTargInflight.With(key)
		g.Dec()
		if g.Value() == 0 {
			s.gTargInflight.Delete(key)
		}
		s.targMu.Unlock()
	}
}

// observePhase lands a request-phase duration in the shared histogram.
func (s *server) observePhase(phase string, d time.Duration) {
	s.hPhase.With(phase).Observe(d.Seconds())
}

// acquire takes a worker-pool slot.  The pool sheds immediately (429)
// when -max-queue requests already wait; an admitted waiter can still
// fail with 503 when the drain starts or the client goes away before a
// slot frees up.  The returned context carries the per-request wall-clock
// budget, started at the grant so queueing does not eat into the work's
// time.  The returned release is idempotent and must be called when the
// work ends.
func (s *server) acquire(ctx context.Context) (context.Context, func(), error) {
	start := time.Now()
	release, err := s.pool.acquire(ctx)
	s.obsFrom(ctx).Event("qos", time.Since(start))
	if err != nil {
		if isA[*resilience.OverloadError](err) {
			s.cShed.Inc()
		}
		return nil, nil, err
	}
	if err := faultpoint.Hit("recordd.worker.spawn", ""); err != nil {
		release()
		return nil, nil, err
	}
	s.cDispatched.Inc()
	wctx, cancel := s.bounded(ctx)
	return wctx, func() { cancel(); release() }, nil
}

// bounded narrows ctx by the per-request wall-clock budget (-timeout).
func (s *server) bounded(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.timeout > 0 {
		return context.WithTimeout(ctx, s.cfg.timeout)
	}
	return ctx, func() {}
}

// retargetOptions are the retarget inputs every request resolves with,
// mirroring the record CLI: ctx as the wall-clock budget, the BDD-node
// and route caps.  The route cap is part of the artifact fingerprint, so
// a model's content address must come from these same options.
func (s *server) retargetOptions(ctx context.Context) core.RetargetOptions {
	return core.RetargetOptions{
		ISE:    ise.Options{MaxAlts: s.cfg.maxRoutes},
		Budget: &diag.Budget{Ctx: ctx, MaxBDDNodes: s.cfg.maxBDDNodes},
		Obs:    s.obsFrom(ctx),
	}
}

// ---- request/response types --------------------------------------------

// modelRequest selects a processor model: inline MDL source or the name of
// a bundled model.
type modelRequest struct {
	Model     string `json:"model,omitempty"`      // inline MDL source
	ModelName string `json:"model_name,omitempty"` // bundled model (see record -list)
}

func (m *modelRequest) source() (string, error) {
	switch {
	case m.Model != "" && m.ModelName != "":
		return "", fmt.Errorf("use either model or model_name, not both")
	case m.Model != "":
		return m.Model, nil
	case m.ModelName != "":
		src, ok := models.Get(m.ModelName)
		if !ok {
			return "", fmt.Errorf("unknown bundled model %q", m.ModelName)
		}
		return src, nil
	}
	return "", fmt.Errorf("no model: set model (inline MDL) or model_name")
}

func (m modelRequest) job() (job, error) { return job{model: m}, nil }

type retargetResponse struct {
	Key       string `json:"key"`
	Name      string `json:"name"`
	Templates int    `json:"templates"`
	Rules     int    `json:"rules"`
	Cache     string `json:"cache"` // hit | hit-disk | miss | coalesced
	Warnings  int    `json:"warnings,omitempty"`
}

type compileRequest struct {
	modelRequest
	Key     string         `json:"key,omitempty"` // artifact key from /v1/retarget
	Source  string         `json:"source"`        // RecC program
	Options compileOptions `json:"options"`
}

func (r compileRequest) job() (job, error) {
	if r.Source == "" {
		return job{}, withStatus(http.StatusBadRequest, errors.New("no source program"))
	}
	return job{key: r.Key, model: r.modelRequest, source: r.Source, options: r.Options}, nil
}

type compileResponse struct {
	Key     string   `json:"key"`
	Name    string   `json:"name"`
	Cache   string   `json:"cache"`
	SeqLen  int      `json:"seq_len"`  // RT instructions before compaction
	CodeLen int      `json:"code_len"` // instruction words
	Words   []uint64 `json:"words"`
	Listing string   `json:"listing"`
}

// compileOptions are a /v1/compile request's compile switches.
type compileOptions struct {
	NoCompaction bool `json:"no_compaction,omitempty"`
	NoPeephole   bool `json:"no_peephole,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"` // refusal class: "overload" | "draining"
}

// ---- handlers -----------------------------------------------------------

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]interface{}{"ok": true}
	status := http.StatusOK
	if s.draining.Load() {
		body["ok"] = false
		body["draining"] = true
		status = http.StatusServiceUnavailable
	}
	s.write(w, r, marshalWire(status, body))
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// ---- request pipeline ---------------------------------------------------

// route is all that tells the POST endpoints apart: the request type its
// body decodes into, whose job says whether there is a program to
// compile, and the response shape.  Every other step is the shared
// pipeline in run.
type route struct {
	decode func(body []byte) (job, error)
	render func(*result) *wireResult
}

var (
	retargetRoute = route{decode: decodeJob[modelRequest], render: renderRetarget}
	compileRoute  = route{decode: decodeJob[compileRequest], render: renderCompile}
)

// job is a decoded POST request in the pipeline's terms.
type job struct {
	key     string // content address: the caller's artifact key, or computed by decode
	model   modelRequest
	mdl     string // model source; "" when the caller sent a key
	source  string // RecC program; "" for /v1/retarget
	options compileOptions
}

// result is what resolving and compiling hand to a route's renderer.
type result struct {
	entry    *rcache.Entry
	cache    rcache.Outcome
	warnings int                 // retarget diagnostics; only a miss has any
	compiled *core.CompileResult // nil for /v1/retarget
}

// decodeJob parses a body as request type T and validates it into a job.
func decodeJob[T interface{ job() (job, error) }](body []byte) (job, error) {
	var req T
	if err := json.Unmarshal(body, &req); err != nil {
		return job{}, withStatus(http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
	}
	return req.job()
}

// serve is the handler for one POST route.
func (s *server) serve(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { s.write(w, r, s.run(r, rt)) }
}

// run is the request pipeline: decode and content address, then a slot,
// resolve, compile and render.  Every outcome, success or refusal,
// comes back rendered.
func (s *server) run(r *http.Request, rt route) *wireResult {
	ctx := r.Context()
	scope := s.obsFrom(ctx)
	start := time.Now()
	j, err := s.decode(r, rt)
	scope.Event("decode", time.Since(start))
	if err != nil {
		return errWire(err)
	}
	wctx, release, err := s.acquire(ctx)
	if err != nil {
		return errWire(err)
	}
	defer release()
	res, err := s.resolve(wctx, j)
	if err == nil && j.source != "" {
		if res.compiled, err = s.compile(wctx, res.entry, j); err != nil {
			err = fmt.Errorf("compile: %w", err)
		}
	}
	if err != nil {
		return errWire(err)
	}

	start = time.Now()
	wr := rt.render(res)
	d := time.Since(start)
	s.observePhase("encode", d)
	scope.Event("render", d)
	return wr
}

// decode reads a POST body under the size cap into the route's job and
// computes the model's content address, once per request: the caller's
// artifact key, else the address of the inline or bundled MDL under the
// options resolve retargets with.  The cache keys on it.
func (s *server) decode(r *http.Request, rt route) (job, error) {
	if r.Method != http.MethodPost {
		return job{}, withStatus(http.StatusMethodNotAllowed, errors.New("use POST"))
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.maxBody+1))
	if err != nil {
		return job{}, withStatus(http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
	}
	if int64(len(body)) > s.cfg.maxBody {
		return job{}, withStatus(http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", s.cfg.maxBody))
	}
	j, err := rt.decode(body)
	switch {
	case err != nil:
		return job{}, err
	case j.key != "" && j.model != modelRequest{}:
		return job{}, withStatus(http.StatusBadRequest, errors.New("use either key or a model, not both"))
	case j.key == "":
		if j.mdl, err = j.model.source(); err != nil {
			return job{}, withStatus(http.StatusBadRequest, err)
		}
		j.key = s.cache.Key(j.mdl, s.retargetOptions(r.Context()))
	}
	return j, nil
}

// resolve turns the request's model into a cache entry: by key through
// the local tiers, or by source through a retarget on demand.  A key the
// node does not hold answers 404; a request that carries the model
// retargets it here.
func (s *server) resolve(ctx context.Context, j job) (*result, error) {
	scope := s.obsFrom(ctx)
	start := time.Now()
	if j.mdl == "" {
		entry, outcome, err := s.cache.LookupContext(ctx, j.key)
		scope.Event("cache", time.Since(start), obs.KV("tier", cacheTier[outcome]))
		if err != nil {
			return nil, fmt.Errorf("restore %s: %w", j.key, err)
		}
		if entry == nil {
			return nil, withStatus(http.StatusNotFound,
				fmt.Errorf("no artifact for key %s: retarget first or send the model inline", j.key))
		}
		return &result{entry: entry, cache: outcome}, nil
	}
	rep := diag.NewReporter()
	ropts := s.retargetOptions(ctx)
	ropts.Reporter = rep
	entry, outcome, err := s.cache.GetContext(ctx, j.mdl, ropts)
	d := time.Since(start)
	s.observePhase("retarget", d)
	scope.Event("cache", d, obs.KV("tier", cacheTier[outcome]))
	if err != nil {
		return nil, fmt.Errorf("retarget: %w", err)
	}
	return &result{entry: entry, cache: outcome, warnings: rep.Warns()}, nil
}

// compile runs the job's program against the resolved entry on the
// request's slot.
func (s *server) compile(ctx context.Context, entry *rcache.Entry, j job) (*core.CompileResult, error) {
	done := s.trackCompile(j.key)
	defer done()
	start := time.Now()
	res, err := entry.Compile(ctx, j.source, core.CompileOptions{
		NoCompaction: j.options.NoCompaction,
		NoPeephole:   j.options.NoPeephole,
		Obs:          s.obsFrom(ctx),
	})
	s.observePhase("compile", time.Since(start))
	return res, err
}

// cacheTier names each cache outcome in the Server-Timing cache desc.
var cacheTier = map[rcache.Outcome]string{
	rcache.Mem: "mem", rcache.Disk: "disk", rcache.Miss: "miss", rcache.Coalesced: "coalesced",
}

func renderRetarget(res *result) *wireResult {
	t := res.entry.Target()
	return marshalWire(http.StatusOK, retargetResponse{
		Key:       res.entry.Key,
		Name:      t.Name,
		Templates: t.Base.Len(),
		Rules:     len(t.Grammar.Rules),
		Cache:     string(res.cache),
		Warnings:  res.warnings,
	})
}

func renderCompile(res *result) *wireResult {
	p := res.compiled
	return marshalWire(http.StatusOK, compileResponse{
		Key:     res.entry.Key,
		Name:    res.entry.Target().Name,
		Cache:   string(res.cache),
		SeqLen:  p.SeqLen(),
		CodeLen: p.CodeLen(),
		Words:   p.Words(),
		Listing: res.entry.Listing(p),
	})
}

// ---- responses ----------------------------------------------------------

// wireResult is a fully rendered JSON response.
type wireResult struct {
	status     int
	retryAfter int    // Retry-After seconds; 0 = none
	failed     bool   // an error response, counted in errors_total
	body       []byte // JSON body, newline-framed
}

func marshalWire(status int, v interface{}) *wireResult {
	body, err := json.Marshal(v)
	if err != nil {
		return errWire(withStatus(http.StatusInternalServerError, err))
	}
	return &wireResult{status: status, body: append(body, '\n')}
}

// errWire renders a failure: status and kind from classify, Retry-After
// from the error's hint rounded up to whole seconds (at least one).
func errWire(err error) *wireResult {
	status, kind := classify(err)
	wr := marshalWire(status, errorResponse{Error: err.Error(), Kind: kind})
	wr.failed = true
	if after, ok := resilience.RetryAfterOf(err); ok {
		wr.retryAfter = max(1, int((after+time.Second-1)/time.Second))
	}
	return wr
}

// write sends a rendered response; every JSON response goes through it.
// A disconnected client is a silent 499-style abort, counted apart from
// server errors; the encode faultpoint fires once per response written,
// and may swap it for a 500 before any header or counter sees it; every
// error response is counted; and a POST response carries its request's
// Server-Timing breakdown.
func (s *server) write(w http.ResponseWriter, r *http.Request, wr *wireResult) {
	if r.Context().Err() == context.Canceled {
		s.cAborts.Inc()
		return
	}
	if err := faultpoint.Hit("recordd.response.encode", ""); err != nil {
		wr = errWire(err)
	}
	if wr.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(wr.retryAfter))
	}
	if wr.failed {
		s.cErrors.With(strconv.Itoa(wr.status)).Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	if c := clockFrom(r.Context()); c != nil {
		w.Header().Set("Server-Timing", c.serverTiming())
	}
	w.WriteHeader(wr.status)
	_, _ = w.Write(wr.body)
}

// statusError pins the HTTP status of a failure the error table cannot
// tell from its type: a malformed request, an unknown key, a conflict.
type statusError struct {
	status int
	err    error
}

func withStatus(status int, err error) error { return &statusError{status, err} }

func (e *statusError) Error() string { return e.err.Error() }

// errorClasses is the one map from a failure to its HTTP status and wire
// kind; the first row the error matches wins.  The kind lets a client
// tell a draining node (the hint is exact) from overload (backing off
// harder is fine).  Budget
// exhaustion is the server's timeout class, recovered panics and injected
// faults are internal, and an abandoned wait is unavailability.
var errorClasses = []struct {
	is     func(error) bool
	status int
	kind   string
}{
	{isA[*resilience.OverloadError], http.StatusTooManyRequests, "overload"},
	{isA[*resilience.DrainingError], http.StatusServiceUnavailable, "draining"},
	{isA[*diag.BudgetError], http.StatusGatewayTimeout, ""},
	{isA[*diag.PanicError], http.StatusInternalServerError, ""},
	{isA[*faultpoint.Fault], http.StatusInternalServerError, ""},
	{func(err error) bool {
		return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}, http.StatusServiceUnavailable, ""},
}

func isA[T error](err error) bool {
	var target T
	return errors.As(err, &target)
}

// classify maps a failure to its HTTP status and wire kind: a pinned
// status first, then errorClasses, else the caller's unprocessable model
// or program (422).
func classify(err error) (status int, kind string) {
	var se *statusError
	if errors.As(err, &se) {
		return se.status, ""
	}
	for _, c := range errorClasses {
		if c.is(err) {
			return c.status, c.kind
		}
	}
	return http.StatusUnprocessableEntity, ""
}
