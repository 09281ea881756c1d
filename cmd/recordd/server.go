package main

import (
	"context"
	"crypto/sha256"
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
	"repro/internal/qos"
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
	brkWindow   int           // breaker outcome window per model (0 = breaker off)
	brkRate     float64       // breaker failure-rate threshold
	brkCooldown time.Duration // breaker open -> half-open cooldown

	nodeID string // fleet identity: /healthz field + node metric label

	brkClock func() time.Time // injectable breaker clock (tests); nil = time.Now
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
	if c.nodeID == "" {
		c.nodeID = "recordd"
	}
	return c
}

// server is the recordd HTTP service: a retarget-artifact cache behind
// /v1/retarget, /v1/compile and /v1/compile-batch, with health and
// metrics endpoints.  Targets are frozen, so compiles against one entry
// run genuinely in parallel — the worker pool bounds CPU, not correctness.
//
// The three POST routes share one request pipeline (run): decode the
// body, compute the model's content address once, check its circuit,
// take a QoS slot, resolve the model through the cache, compile, render
// and write.  A route only picks its request type (whose job says
// whether and how many programs to compile), its default priority class
// and its response shape.  Every response, success or refusal, is
// rendered to a wireResult and sent by write, and one table (classify)
// maps a failure to its status and wire kind.
//
// The service protects itself (internal/resilience + internal/qos): the
// QoS scheduler owns the worker slots — weighted multi-queue admission
// over interactive/batch priority classes sheds with 429 + Retry-After
// once the backlog exceeds -max-queue (batch first, always), duplicate
// /v1/compile requests coalesce into one execution.  A per-model circuit
// breaker turns a repeatedly failing model into fast 503s instead of
// burnt retarget workers, and beginDrain flips the whole surface into
// refusal mode so shutdown finishes in-flight work and nothing is
// dropped without an explicit status.
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

	sched *qos.Scheduler        // worker slots + per-class admission
	coal  *resilience.Coalescer // duplicate /v1/compile merging

	brk      *resilience.Breaker
	drainCh  chan struct{} // closed when draining starts
	draining atomic.Bool

	reg *obs.Registry
	scp *obs.Scope // registry-only scope for work outside any request

	gInflight     *obs.Gauge        // compiles currently executing
	gTargInflight *obs.GaugeVec     // by artifact key; series dropped at zero
	hPhase        *obs.HistogramVec // request-handling latency by phase

	gQueue      *obs.GaugeVec   // queued waiters, by priority class
	gDraining   *obs.Gauge      // 1 while draining
	cShed       *obs.CounterVec // requests shed by admission, by class
	cDispatched *obs.CounterVec // pool slots granted, by class
	cCoalesced  *obs.Counter    // duplicate compiles answered from a leader's run
	cBrkOpens   *obs.Counter    // breaker trips to open
	cBrkReject  *obs.Counter    // requests refused by an open circuit
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
		coal:    &resilience.Coalescer{},
		drainCh: make(chan struct{}),
		reg:     reg,
		scp:     scp,
		gInflight: reg.Gauge("record_recordd_inflight_compiles",
			"compiles currently executing"),
		gTargInflight: reg.GaugeVec("record_recordd_target_inflight_compiles",
			"compiles currently executing, by artifact key", "key"),
		hPhase: reg.HistogramVec("record_recordd_phase_seconds",
			"request-handling latency by phase", nil, "phase"),
		gQueue: reg.GaugeVec("record_recordd_queue_depth",
			"requests waiting for a worker-pool slot, by priority class", "class"),
		gDraining: reg.Gauge("record_recordd_draining",
			"1 while the service is draining"),
		cShed: reg.CounterVec("record_recordd_shed_total",
			"requests shed by admission control (429), by priority class", "class"),
		cDispatched: reg.CounterVec("record_recordd_dispatched_total",
			"worker-pool slots granted, by priority class", "class"),
		cCoalesced: reg.Counter("record_recordd_qos_coalesced_total",
			"duplicate compile requests answered from another request's execution"),
		cBrkOpens: reg.Counter("record_recordd_breaker_opens_total",
			"circuit-breaker trips to open, across all models"),
		cBrkReject: reg.Counter("record_recordd_breaker_rejections_total",
			"requests refused because a model's circuit was open"),
		cErrors: reg.CounterVec("record_recordd_errors_total",
			"error responses, by HTTP status", "status"),
		cAborts: reg.Counter("record_recordd_client_aborts_total",
			"requests whose client disconnected before a response (499-style)"),
	}
	s.sched = qos.NewScheduler(qos.Config{
		Capacity: cfg.workers,
		MaxQueue: cfg.maxQueue,
		Drain:    s.drainCh,
		OnDepth:  func(cl qos.Class, depth int) { s.gQueue.With(cl.String()).Set(int64(depth)) },
	})
	// Pre-create the per-class series so a scrape of an idle server shows
	// explicit zeros instead of absent lines.
	for _, cl := range qos.Classes {
		s.gQueue.With(cl.String()).Set(0)
		s.cShed.With(cl.String()).Add(0)
		s.cDispatched.With(cl.String()).Add(0)
	}
	reg.GaugeVec("record_recordd_node_info",
		"static node identity; always 1", "node").With(cfg.nodeID).Set(1)
	if cfg.brkWindow > 0 {
		s.brk = resilience.NewBreaker(resilience.BreakerConfig{
			Window:      cfg.brkWindow,
			FailureRate: cfg.brkRate,
			Cooldown:    cfg.brkCooldown,
			Now:         cfg.brkClock,
			OnTrip:      func(string) { s.cBrkOpens.Inc() },
		})
	}
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
	mux.HandleFunc("/v1/compile-batch", s.serve(batchRoute))
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

// acquire takes a worker-pool slot through the QoS scheduler.  Weighted
// admission sheds immediately (429) when the waiter backlog is at
// -max-queue — batch first, interactive only when the queue holds
// nothing else; an admitted waiter can still fail with 503 when the
// drain starts or the client goes away before a slot frees up.  The
// returned context carries the per-request wall-clock budget, started at
// the grant so queueing does not eat into the work's time.  The returned
// release is idempotent and must be called when the work ends.
func (s *server) acquire(ctx context.Context, cl qos.Class) (context.Context, func(), error) {
	start := time.Now()
	release, err := s.sched.Acquire(ctx, cl)
	s.obsFrom(ctx).Event("qos", time.Since(start))
	if err != nil {
		var ov *resilience.OverloadError
		if errors.As(err, &ov) {
			s.cShed.With(cl.String()).Inc()
		}
		return nil, nil, err
	}
	if err := faultpoint.Hit("recordd.worker.spawn", ""); err != nil {
		release()
		return nil, nil, err
	}
	s.cDispatched.With(cl.String()).Inc()
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

// recordOutcome lands one pipeline outcome in the model's circuit: success
// and server faults (5xx) move the window, caller errors (4xx) do not.
func (s *server) recordOutcome(key string, err error) {
	if err == nil {
		s.brk.Record(key, true)
	} else if status, _ := classify(err); status >= http.StatusInternalServerError {
		s.brk.Record(key, false)
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
	return job{key: r.Key, model: r.modelRequest, programs: []batchProgram{{Source: r.Source}}, options: r.Options}, nil
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

// compileOptions is the per-program options object shared by /v1/compile
// and /v1/compile-batch.
type compileOptions struct {
	NoCompaction bool `json:"no_compaction,omitempty"`
	NoPeephole   bool `json:"no_peephole,omitempty"`
}

// batchProgram is one unit of work in a /v1/compile-batch request.
type batchProgram struct {
	ID      string          `json:"id,omitempty"` // echoed back; defaults to its index
	Source  string          `json:"source"`
	Options *compileOptions `json:"options,omitempty"` // overrides the batch default
}

// compileBatchRequest fans a set of programs over the worker pool against
// one target.  The model is resolved once (key, inline MDL, or bundled
// name); programs compile concurrently against the frozen target.
type compileBatchRequest struct {
	modelRequest
	Key      string         `json:"key,omitempty"`
	Programs []batchProgram `json:"programs"`
	Options  compileOptions `json:"options"` // default for programs without their own
}

func (r compileBatchRequest) job() (job, error) {
	if len(r.Programs) == 0 {
		return job{}, withStatus(http.StatusBadRequest, errors.New("no programs"))
	}
	for i := range r.Programs {
		if r.Programs[i].Source == "" {
			return job{}, withStatus(http.StatusBadRequest, fmt.Errorf("program %d has no source", i))
		}
		if r.Programs[i].ID == "" {
			r.Programs[i].ID = strconv.Itoa(i)
		}
	}
	return job{key: r.Key, model: r.modelRequest, programs: r.Programs, options: r.Options}, nil
}

// batchResult is the per-program outcome.  Status mirrors the /v1/compile
// status mapping: 200 ok, 422 unencodable program, 504 budget exhausted,
// 500 internal fault.  On non-200 only Error is populated.
type batchResult struct {
	ID      string   `json:"id"`
	Status  int      `json:"status"`
	Error   string   `json:"error,omitempty"`
	SeqLen  int      `json:"seq_len,omitempty"`
	CodeLen int      `json:"code_len,omitempty"`
	Words   []uint64 `json:"words,omitempty"`
	Listing string   `json:"listing,omitempty"`
}

// compileBatchResponse reports every program's outcome.  The HTTP status
// is 200 whenever the target resolved, even if every program failed —
// partial failure is data, not transport error.
type compileBatchResponse struct {
	Key       string        `json:"key"`
	Name      string        `json:"name"`
	Cache     string        `json:"cache"`
	Succeeded int           `json:"succeeded"`
	Failed    int           `json:"failed"`
	Results   []batchResult `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"` // refusal class: "overload" | "open" | "draining"
}

// ---- handlers -----------------------------------------------------------

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]interface{}{"ok": true, "node": s.cfg.nodeID}
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
// body decodes into, whose job says whether and how many programs to
// compile; the default priority class; and the response shape.  Every
// other step is the shared pipeline in run.
type route struct {
	decode func(body []byte) (job, error)
	class  qos.Class // default; X-Record-Priority overrides
	render func(*result) *wireResult
	// batch programs each take a pool slot of their own once the model
	// resolves, and the whole request is timed as phase "batch".
	batch bool
}

var (
	retargetRoute = route{decode: decodeJob[modelRequest], class: qos.Interactive, render: renderRetarget}
	compileRoute  = route{decode: decodeJob[compileRequest], class: qos.Interactive, render: renderCompile}
	batchRoute    = route{decode: decodeJob[compileBatchRequest], class: qos.Batch, render: renderBatch, batch: true}
)

// job is a decoded POST request in the pipeline's terms.
type job struct {
	key      string // content address: the caller's artifact key, or computed by decode
	model    modelRequest
	mdl      string         // model source; "" when the caller sent a key
	programs []batchProgram // none for /v1/retarget
	options  compileOptions // default for programs without their own
}

// result is what resolving and compiling hand to a route's renderer.
type result struct {
	entry    *rcache.Entry
	cache    rcache.Outcome
	warnings int        // retarget diagnostics; only a miss has any
	programs []compiled // in request order
}

// compiled is one program's outcome.
type compiled struct {
	id  string
	res *core.CompileResult
	err error
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

// run is the request pipeline: decode, content address, circuit, then a
// slot, resolve, compile and render (execute).  Every outcome, success or
// refusal, comes back rendered.
func (s *server) run(r *http.Request, rt route) *wireResult {
	ctx := r.Context()
	scope := s.obsFrom(ctx)
	start := time.Now()
	j, err := s.decode(r, rt)
	scope.Event("decode", time.Since(start))
	if err != nil {
		return errWire(err)
	}
	if err := s.brk.Allow(j.key); err != nil {
		s.cBrkReject.Inc()
		return errWire(err)
	}
	// A bad X-Record-Priority degrades to the route default; it can never
	// fail a request.
	cl := qos.ParseClass(r.Header.Get("X-Record-Priority"), rt.class)
	if rt.batch {
		start := time.Now()
		defer func() { s.observePhase("batch", time.Since(start)) }()
	}
	if rt.batch || len(j.programs) != 1 {
		return s.execute(ctx, rt, j, cl)
	}
	// A single compile is a pure function of its model, program and
	// options, so identical requests queued at the same time collapse onto
	// one execution whose bytes (refusals too) every duplicate replays —
	// unless the leader's client left first, and a duplicate takes over.
	// A duplicate's time is its wait, timed as a coalesced cache answer.
	start = time.Now()
	v, shared, err := s.coal.Do(ctx, coalesceKey(j), func() (interface{}, error) {
		return s.execute(ctx, rt, j, cl), nil
	})
	if err != nil {
		// This request's own context ended while waiting on the leader.
		return errWire(err)
	}
	if shared {
		s.cCoalesced.Inc()
		scope.Event("cache", time.Since(start), obs.KV("tier", "coalesced"))
	}
	return v.(*wireResult)
}

// decode reads a POST body under the size cap into the route's job and
// computes the model's content address, once per request: the caller's
// artifact key, else the address of the inline or bundled MDL under the
// options resolve retargets with.  The breaker, the coalescer and the
// cache all key on it.
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

// execute runs a job on a pool slot: resolve the model, compile the
// programs, render.  A batch hands its slot back once the model resolves
// and compiles each program on a slot of its own, so it can never hold
// more of the pool than the configured concurrency.
func (s *server) execute(ctx context.Context, rt route, j job, cl qos.Class) *wireResult {
	wctx, release, err := s.acquire(ctx, cl)
	if err != nil {
		return errWire(err)
	}
	defer release()
	res, err := s.resolve(wctx, j)
	if err != nil || len(j.programs) == 0 {
		s.recordOutcome(j.key, err)
	}
	if err != nil {
		return errWire(err)
	}

	res.programs = make([]compiled, len(j.programs))
	if rt.batch {
		release()
		var wg sync.WaitGroup
		for i, p := range j.programs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pctx, release, err := s.acquire(ctx, cl)
				if err != nil {
					res.programs[i] = compiled{id: p.ID, err: err}
					return
				}
				defer release()
				res.programs[i] = s.compile(pctx, res.entry, j, p)
			}()
		}
		wg.Wait()
	} else {
		for i, p := range j.programs {
			res.programs[i] = s.compile(wctx, res.entry, j, p)
		}
	}

	start := time.Now()
	wr := rt.render(res)
	d := time.Since(start)
	s.observePhase("encode", d)
	s.obsFrom(ctx).Event("render", d)
	return wr
}

// resolve turns the request's model into a cache entry: by key through
// the local tiers, or by source through a retarget on demand.  A node
// never asks another for an artifact: one that lacks a key answers 404,
// and a request that carries the model retargets it here.
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
	if outcome == rcache.Miss {
		s.observePhase("freeze", entry.Target().Stats.Freeze)
	}
	return &result{entry: entry, cache: outcome, warnings: rep.Warns()}, nil
}

// compile runs one of the job's programs against the resolved entry on
// the caller's slot and lands its outcome in the model's circuit.
func (s *server) compile(ctx context.Context, entry *rcache.Entry, j job, p batchProgram) compiled {
	done := s.trackCompile(j.key)
	defer done()
	opts := j.options
	if p.Options != nil {
		opts = *p.Options
	}
	start := time.Now()
	res, err := entry.Compile(ctx, p.Source, core.CompileOptions{
		NoCompaction: opts.NoCompaction,
		NoPeephole:   opts.NoPeephole,
		Obs:          s.obsFrom(ctx),
	})
	s.observePhase("compile", time.Since(start))
	s.recordOutcome(j.key, err)
	return compiled{id: p.ID, res: res, err: err}
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
	p := res.programs[0]
	if p.err != nil {
		return errWire(fmt.Errorf("compile: %w", p.err))
	}
	return marshalWire(http.StatusOK, compileResponse{
		Key:     res.entry.Key,
		Name:    res.entry.Target().Name,
		Cache:   string(res.cache),
		SeqLen:  p.res.SeqLen(),
		CodeLen: p.res.CodeLen(),
		Words:   p.res.Words(),
		Listing: res.entry.Listing(p.res),
	})
}

func renderBatch(res *result) *wireResult {
	resp := compileBatchResponse{
		Key:     res.entry.Key,
		Name:    res.entry.Target().Name,
		Cache:   string(res.cache),
		Results: make([]batchResult, len(res.programs)),
	}
	for i, p := range res.programs {
		if p.err != nil {
			status, _ := classify(p.err)
			resp.Results[i] = batchResult{ID: p.id, Status: status, Error: p.err.Error()}
			resp.Failed++
			continue
		}
		resp.Results[i] = batchResult{
			ID:      p.id,
			Status:  http.StatusOK,
			SeqLen:  p.res.SeqLen(),
			CodeLen: p.res.CodeLen(),
			Words:   p.res.Words(),
			Listing: res.entry.Listing(p.res),
		}
		resp.Succeeded++
	}
	return marshalWire(http.StatusOK, resp)
}

// coalesceKey fingerprints everything that determines a /v1/compile
// response: the model's content address, the program source and the
// compile options.  Two requests with equal keys are interchangeable and
// safe to answer with one execution.
func coalesceKey(j job) string {
	h := sha256.New()
	io.WriteString(h, j.key)
	h.Write([]byte{0})
	io.WriteString(h, j.programs[0].Source)
	fmt.Fprintf(h, "\x00%v\x00%v", j.options.NoCompaction, j.options.NoPeephole)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// ---- responses ----------------------------------------------------------

// wireResult is a fully rendered JSON response, so a coalesced duplicate
// writes exactly the bytes its leader produced.
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
// Per-request concerns stay per-request even when a coalesced result is
// shared: a disconnected client is a silent 499-style abort, counted
// apart from server errors; the encode faultpoint fires once per response
// written, and may swap it for a 500 before any header or counter sees
// it; every error response is counted against its own request; and a
// POST response carries its request's Server-Timing breakdown.
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
// tell a draining node (fail over now, the hint is exact) from overload
// or an open circuit (backing off harder is fine).  Budget
// exhaustion is the server's timeout class, recovered panics and injected
// faults are internal, and an abandoned wait is unavailability.
var errorClasses = []struct {
	is     func(error) bool
	status int
	kind   string
}{
	{isA[*resilience.OverloadError], http.StatusTooManyRequests, "overload"},
	{isA[*resilience.OpenError], http.StatusServiceUnavailable, "open"},
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
