// Package rcache is the two-tier retarget cache: an in-memory LRU of live
// core.Target instances over an on-disk store of artifacts
// (internal/artifact), each holding a model's source and retarget options
// under its content address.
//
// A retarget product is a pure function of (MDL source, options), so
// serving compiles at production traffic means computing it once per
// process and sharing it.  GetContext (by source) and LookupContext (by
// key) are one resolve path: memory, then an in-flight fill for the same
// content address, then disk and — when the source is known — a
// retarget.  A disk hit re-runs the retarget from the stored source: the
// disk tier is what lets a by-key lookup find a model's source after a
// restart or an eviction.  An entry enters the memory tier only because a
// request asked for it, and the LRU alone decides what stays.
// One resilience.Coalescer covers every fill, so concurrent requests for
// an address cost one retarget.  Disk artifacts are promoted into the
// memory tier on first use.  Bytes that fail artifact.Decode are
// quarantined and treated as a miss plus a diagnostic warning; a
// retarget that fails on verified bytes is the caller's error and leaves
// the file in place.  Every cache event is counted once, in the obs
// registry (record_rcache_*).
//
// Entries need no per-entry lock: every cached Target is frozen (its BDD
// tables are read-only and compiles run against private copy-on-write
// views), so any number of goroutines may compile through the same entry
// simultaneously.
package rcache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/faultpoint"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Outcome says which tier satisfied a Get.
type Outcome string

// Get outcomes.
const (
	Mem       Outcome = "hit"       // memory tier
	Disk      Outcome = "hit-disk"  // retargeted from the artifact store
	Miss      Outcome = "miss"      // full retarget ran
	Coalesced Outcome = "coalesced" // waited on another request's fill
)

// Hit reports whether the outcome avoided a full retarget.
func (o Outcome) Hit() bool { return o != Miss }

// Options configures a cache.
type Options struct {
	// Dir is the artifact store directory; empty disables the disk tier.
	Dir string
	// MaxEntries caps the memory tier (default 16 targets).
	MaxEntries int
	// Reporter receives corruption and store-failure warnings; nil is safe.
	Reporter *diag.Reporter
	// Obs supplies the registry the cache counters land in
	// (record_rcache_*); per-request spans come from the RetargetOptions
	// passed to GetContext instead.  nil is safe.
	Obs *obs.Scope
}

// DefaultMaxEntries is the memory-tier capacity when Options.MaxEntries
// is unset.
const DefaultMaxEntries = 16

// Entry is one cached retarget product.  The target is frozen, so every
// method — and direct use of Target() — is safe for concurrent use with
// no serialization: parallel compiles share the read-only tables and keep
// their mutable state in per-compile sessions.
type Entry struct {
	Key string

	target   *core.Target
	compiler *core.Compiler
}

// Compile compiles RecC source through the cached target's pooled
// Compiler.  Any number of Compiles may run concurrently against the same
// entry; they share the handle's session pool instead of allocating a
// fresh encoding session per request.
func (e *Entry) Compile(ctx context.Context, src string, opts core.CompileOptions) (*core.CompileResult, error) {
	return e.compiler.CompileSourceOpts(ctx, src, opts)
}

// Listing renders a compile result against the cached target.
func (e *Entry) Listing(r *core.CompileResult) string {
	return e.target.Listing(r)
}

// Target exposes the underlying frozen target; it is safe to share across
// goroutines.
func (e *Entry) Target() *core.Target { return e.target }

// Cache is the two-tier retarget cache.  All methods are safe for
// concurrent use.
type Cache struct {
	opts Options

	mu    sync.Mutex
	lru   *list.List               // of *Entry, front = most recent
	byKey map[string]*list.Element // key -> LRU element

	// fills is the one singleflight below the memory tier: disk load
	// and retarget, for every entry point.
	fills resilience.Coalescer

	// diskOff flips on when the store becomes unusable (disk full,
	// read-only filesystem, permission loss): the cache degrades to
	// memory-only with one warning instead of failing every request.
	diskOff atomic.Bool

	// The cache's counters, in the registry /metrics serves and nowhere
	// else (nil-safe when Options.Obs carries no registry).
	cHits       *obs.CounterVec // by tier: mem | disk
	cMisses     *obs.Counter
	cCoalesced  *obs.Counter
	cEvictions  *obs.Counter
	cCorrupt    *obs.Counter
	cRetargets  *obs.Counter
	cOrphans    *obs.Counter
	cDiskErrors *obs.Counter
	gDegraded   *obs.Gauge
	gQuarantine *obs.Gauge // .quarantine files: swept at startup, bumped per quarantine
}

// New creates a cache; when opts.Dir is set the directory is created and
// scanned for crash debris: temp files orphaned by a process killed
// mid-store are deleted so a crash during a cache write never leaks disk
// or confuses a later scan.
func New(opts Options) (*Cache, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("rcache: %w", err)
		}
	}
	c := &Cache{
		opts:  opts,
		lru:   list.New(),
		byKey: make(map[string]*list.Element),
	}
	reg := opts.Obs.Registry()
	c.cHits = reg.CounterVec("record_rcache_hits_total",
		"retarget cache hits, by tier", "tier")
	c.cMisses = reg.Counter("record_rcache_misses_total",
		"retarget cache misses (full retarget ran)")
	c.cCoalesced = reg.Counter("record_rcache_coalesced_total",
		"requests coalesced onto an in-flight cache fill")
	c.cEvictions = reg.Counter("record_rcache_evictions_total",
		"memory-tier LRU evictions")
	c.cCorrupt = reg.Counter("record_rcache_corrupt_total",
		"disk artifacts dropped as corrupt")
	c.cRetargets = reg.Counter("record_rcache_retargets_total",
		"retargets of a request's model source (a disk hit counts as a hit)")
	c.cOrphans = reg.Counter("record_rcache_orphans_recovered_total",
		"crash-orphaned temp files removed by the startup recovery scan")
	c.cDiskErrors = reg.Counter("record_rcache_disk_errors_total",
		"disk-tier write failures")
	c.gDegraded = reg.Gauge("record_rcache_disk_degraded",
		"1 when the disk tier is disabled after an unusable-disk error")
	c.gQuarantine = reg.Gauge("record_rcache_quarantined_files",
		"corrupt artifacts currently set aside as <key>.quarantine in the store directory")
	if opts.Dir != "" {
		c.recoverOrphans()
		c.sweepQuarantine()
	}
	return c, nil
}

// sweepQuarantine counts the .quarantine files already accumulated in the
// store directory so operators see corruption that predates this process
// (quarantined artifacts are never deleted automatically; clearing them
// is an explicit operator action).
func (c *Cache) sweepQuarantine() {
	entries, err := os.ReadDir(c.opts.Dir)
	if err != nil {
		return
	}
	found := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".quarantine") {
			found++
		}
	}
	c.gQuarantine.Set(int64(found))
	if found > 0 {
		c.opts.Reporter.Warnf("rcache", diag.Pos{},
			"%d quarantined artifact(s) from previous runs in %s", found, c.opts.Dir)
	}
}

// recoverOrphans deletes temp files left behind by a crash mid-store.
// Completed artifacts are never touched: store renames atomically, so any
// ".*.tmp*" file is by construction a torn write.
func (c *Cache) recoverOrphans() {
	entries, err := os.ReadDir(c.opts.Dir)
	if err != nil {
		c.opts.Reporter.Warnf("rcache", diag.Pos{}, "recovery scan failed: %v", err)
		return
	}
	removed := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, ".") || !strings.Contains(name, ".tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(c.opts.Dir, name)); err == nil {
			removed++
		}
	}
	if removed > 0 {
		c.cOrphans.Add(removed)
		c.opts.Reporter.Warnf("rcache", diag.Pos{},
			"recovered %d orphan temp file(s) from a previous crash", removed)
	}
}

// markHit records a zero-length cache.hit span so the trace of a cached
// request shows which tier answered — and, by the absence of retarget
// spans, that no pipeline work ran.
func markHit(scope *obs.Scope, tier string) {
	sp, _ := scope.Start("cache.hit", obs.KV("tier", tier))
	sp.End()
}

// Len returns the number of memory-tier entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Key returns the content address Get will use for (mdlSource, ropts).
func (c *Cache) Key(mdlSource string, ropts core.RetargetOptions) string {
	return artifact.Key(mdlSource, ropts)
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.opts.Dir, key+".rart")
}

// newEntry wraps a frozen target in an Entry with a pooled compile
// handle.  Every retarget freezes its target, so a target that cannot
// back a Compiler is a failed fill, not an entry.
func (c *Cache) newEntry(key string, t *core.Target) (*Entry, error) {
	cc, err := core.NewCompiler(t, core.Config{Obs: c.opts.Obs})
	if err != nil {
		return nil, err
	}
	return &Entry{Key: key, target: t, compiler: cc}, nil
}

// GetContext returns the cached retarget product for (mdlSource, ropts),
// running the retarget at most once per content address across concurrent
// callers.  ctx bounds the work this call leads; a caller that joins
// another's fill stops waiting when its own ctx ends, and takes the fill
// over if the leader's ctx ends first (resilience.Coalescer).  The
// returned outcome says which tier satisfied the request.
func (c *Cache) GetContext(ctx context.Context, mdlSource string, ropts core.RetargetOptions) (*Entry, Outcome, error) {
	key := artifact.Key(mdlSource, ropts)
	// The request's trace: everything below — hit markers, coalesced
	// waits, a disk load, a full retarget — parents under one rcache.get
	// span.
	gSpan, gScope := ropts.Obs.Start("rcache.get")
	defer gSpan.End()
	ropts.Obs = gScope
	return c.resolve(ctx, key, mdlSource, ropts)
}

// LookupContext returns the entry for a content address without being
// able to retarget from a caller's source: memory tier, an in-flight fill
// for the key, then the disk tier.  The entry is nil with a nil error
// when the key is in none of them (or its disk artifact is corrupt), and
// for a key that is not a content address, so a caller-supplied key never
// names a file outside the store.  A retarget of a verified disk artifact
// that fails returns its error.  The outcome says which tier answered,
// Miss when none did.
func (c *Cache) LookupContext(ctx context.Context, key string) (*Entry, Outcome, error) {
	if !validKey(key) {
		return nil, Miss, nil
	}
	return c.resolve(ctx, key, "", core.RetargetOptions{})
}

// resolve is the one tier walk behind every entry point: memory, then an
// in-flight fill for the same key, then fill's disk and retarget steps.
// A nil entry with a nil error means no tier holds the key and there is
// no source to rebuild it from.
func (c *Cache) resolve(ctx context.Context, key, mdlSource string, ropts core.RetargetOptions) (*Entry, Outcome, error) {
	if e := c.memGet(key); e != nil {
		c.count(ropts.Obs, Mem)
		return e, Mem, nil
	}
	for {
		start := time.Now()
		v, shared, err := c.fills.Do(ctx, key, func() (interface{}, error) {
			return c.fill(ctx, key, mdlSource, ropts)
		})
		r, _ := v.(filled)
		if shared {
			if err == nil && r.entry == nil && mdlSource != "" {
				continue // a by-key fill found nothing; this caller can retarget
			}
			ropts.Obs.Event("cache.coalesced", time.Since(start))
			if err != nil && ctx.Err() != nil {
				err = &diag.BudgetError{Resource: "deadline", Cause: ctx.Err()}
			}
			r.outcome = Coalesced
		}
		if err != nil || r.entry == nil {
			return nil, Miss, err
		}
		c.count(ropts.Obs, r.outcome)
		return r.entry, r.outcome, nil
	}
}

// filled is what one fill hands to every caller that joined it.
type filled struct {
	entry   *Entry
	outcome Outcome
}

// hitTier labels a hit by the tier it came from.
var hitTier = map[Outcome]string{Mem: "mem", Disk: "disk"}

// count lands one resolved call in exactly one counter, and marks a
// hit's tier on the request's trace.
func (c *Cache) count(scope *obs.Scope, out Outcome) {
	switch out {
	case Miss:
		c.cMisses.Inc()
	case Coalesced:
		c.cCoalesced.Inc()
	default:
		c.cHits.With(hitTier[out]).Inc()
		markHit(scope, hitTier[out])
	}
}

// memGet returns the memory-tier entry for key, marking it most recent.
func (c *Cache) memGet(key string) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*Entry)
	}
	return nil
}

// fill resolves a key the memory tier does not have: disk first, then —
// when mdlSource is known — a full retarget, persisting the fresh
// artifact for the next process.  The entry lands in the memory tier
// before the fill ends, so a caller arriving after it is a memory hit.
// Budget-degraded (partial) products stay out of both tiers: the content
// address does not encode the budget, so a retry with a larger one must
// not hit the degraded result.
func (c *Cache) fill(ctx context.Context, key, mdlSource string, ropts core.RetargetOptions) (interface{}, error) {
	if e := c.memGet(key); e != nil { // a fill ended since the caller looked
		return filled{e, Mem}, nil
	}
	entry, err := c.loadDisk(key)
	if err != nil {
		return nil, err
	}
	out := Disk
	if entry == nil {
		if mdlSource == "" {
			return filled{}, nil
		}
		c.cRetargets.Inc()
		t, err := core.RetargetContext(ctx, mdlSource, ropts)
		if err != nil {
			return nil, err
		}
		if entry, err = c.newEntry(key, t); err != nil {
			return nil, err
		}
		out = Miss
		if c.opts.Dir != "" && !c.diskOff.Load() && artifact.Cacheable(t) {
			if err := c.store(key, t, mdlSource, ropts); err != nil {
				c.diskFail(key, err)
			}
		}
	}
	if artifact.Cacheable(entry.target) {
		c.mu.Lock()
		c.insert(key, entry)
		c.mu.Unlock()
	}
	return filled{entry, out}, nil
}

// loadDisk restores the entry for key from its artifact.  Bytes that fail
// to decode, or that self-identify as another key, are quarantined as a
// miss: renamed to <key>.quarantine, never deleted, so the evidence of how
// they rotted survives for forensics, and the key is rebuilt by the next
// retarget that has its source.  A retarget of verified bytes that fails
// is returned as an error and leaves the file in place.
func (c *Cache) loadDisk(key string) (*Entry, error) {
	if c.opts.Dir == "" || c.diskOff.Load() {
		return nil, nil
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, nil // absent: plain miss
	}
	a, err := artifact.Decode(data)
	if err == nil && a.Key != key {
		err = fmt.Errorf("artifact self-identifies as %s", a.Key)
	}
	if err != nil {
		c.quarantine(key, err)
		return nil, nil
	}
	t, err := a.Target()
	if err != nil {
		return nil, err
	}
	return c.newEntry(key, t)
}

func (c *Cache) quarantinePath(key string) string {
	return filepath.Join(c.opts.Dir, key+".quarantine")
}

// quarantine sets a corrupt artifact aside as <key>.quarantine and counts
// the corruption once.  Renaming (not deleting) preserves the corrupt
// bytes for forensics.  A failed rename leaves the file in place —
// deletion is never the fallback — and the key simply stays a miss.
func (c *Cache) quarantine(key string, cause error) {
	c.cCorrupt.Inc()
	_, statErr := os.Stat(c.quarantinePath(key))
	if err := os.Rename(c.path(key), c.quarantinePath(key)); err != nil {
		c.opts.Reporter.Warnf("rcache", diag.Pos{},
			"corrupt cache artifact %s (%v) could not be quarantined: %v", key, cause, err)
		return
	}
	if statErr != nil { // first quarantine of this key; re-corruption overwrites
		c.gQuarantine.Inc()
	}
	c.opts.Reporter.Warnf("rcache", diag.Pos{},
		"quarantined corrupt cache artifact %s: %v", key, cause)
}

// validKey reports whether key has the exact shape of a content address
// (64 lowercase hex digits).
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if ch := key[i]; (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return false
		}
	}
	return true
}

// store encodes the artifact and writes it crash-safely.
func (c *Cache) store(key string, t *core.Target, mdlSource string, ropts core.RetargetOptions) error {
	if err := faultpoint.Hit("rcache.disk.write", key); err != nil {
		return err
	}
	a, err := artifact.New(t, mdlSource, ropts)
	if err != nil {
		return err
	}
	data, err := a.Encode()
	if err != nil {
		return err
	}
	return c.storeBytes(key, data)
}

// storeBytes writes encoded artifact bytes crash-safely: temp file, fsync
// of the data, atomic rename, fsync of the directory.  Readers never
// observe a torn write, and a write the caller saw succeed survives a
// machine crash.  On any failure the temp file is removed so failed
// writes cannot leak.
func (c *Cache) storeBytes(key string, data []byte) error {
	tmp, err := os.CreateTemp(c.opts.Dir, "."+key+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.path(key))
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	// The rename is in the directory's metadata: fsync it so the entry —
	// not just the bytes — is durable.
	return syncDir(c.opts.Dir)
}

// syncDir fsyncs a directory so renames inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// diskFail handles a disk-tier write failure.  Unusable-disk conditions
// (no space, read-only filesystem, permission loss) disable the tier for
// the rest of the process with a single warning — the cache keeps serving
// memory-only; anything else warns per-failure and leaves the tier on.
func (c *Cache) diskFail(key string, err error) {
	c.cDiskErrors.Inc()
	if !diskUnusable(err) {
		c.opts.Reporter.Warnf("rcache", diag.Pos{}, "cannot persist artifact %s: %v", key, err)
		return
	}
	if c.diskOff.CompareAndSwap(false, true) {
		c.gDegraded.Set(1)
		c.opts.Reporter.Warnf("rcache", diag.Pos{},
			"disk tier disabled (%v): continuing memory-only", err)
	}
}

// diskUnusable reports whether err means the store directory cannot be
// written at all (as opposed to one artifact failing).
func diskUnusable(err error) bool {
	return errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EROFS) ||
		errors.Is(err, syscall.EDQUOT) ||
		errors.Is(err, os.ErrPermission)
}

// Degraded reports whether the disk tier has been disabled.
func (c *Cache) Degraded() bool { return c.diskOff.Load() }

// Close flushes the disk tier: it fsyncs the store directory so every
// completed artifact rename is durable before the process exits.  The
// cache stays usable after Close (it holds no file handles open); recordd
// calls this as the last step of a graceful drain.
func (c *Cache) Close() error {
	if c.opts.Dir == "" || c.diskOff.Load() {
		return nil
	}
	return syncDir(c.opts.Dir)
}

// insert adds an entry to the memory tier, evicting from the LRU tail.
// Caller holds c.mu.
func (c *Cache) insert(key string, e *Entry) {
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(e)
	for c.lru.Len() > c.opts.MaxEntries {
		tail := c.lru.Back()
		victim := c.lru.Remove(tail).(*Entry)
		delete(c.byKey, victim.Key)
		c.cEvictions.Inc()
	}
}
