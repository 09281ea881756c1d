// Command recordd is the long-running compile service over the retargetable
// compiler: the expensive retarget step (ISE → template extension → tree
// grammar → BURS tables) runs once per processor model while its target
// stays in the memory tier of a two-tier cache (internal/rcache), whose
// disk tier keeps each model's source under its content address; compile
// requests against a cached model pay only code selection, compaction and
// encoding.
//
// Endpoints:
//
//	POST /v1/retarget  {"model": "<MDL source>"} or {"model_name": "tms320c25"}
//	                   → {"key", "name", "templates", "rules", "cache"}
//	POST /v1/compile   {"key": "<artifact key>"} or a model selector, plus
//	                   {"source": "<RecC program>", "options": {...}}
//	                   → {"key", "cache", "words", "listing", "seq_len", "code_len"}
//	GET  /healthz      liveness; 503 {"draining": true} during shutdown;
//	                   includes the node identity ("node")
//	GET  /metrics      cache counters, in-flight compiles, per-phase latency
//
// Flags:
//
//	-addr host:port    listen address (default :8347)
//	-node-id id        fleet node identity in /healthz and metrics
//	                   (default: the bound listen address)
//	-debug-addr h:p    profiling listener: net/http/pprof plus /metrics
//	                   (default off; keep it off the public address)
//	-cache-dir dir     artifact store directory (default: memory-only)
//	-cache-size n      in-memory target LRU capacity
//	-workers n         bounded worker pool for retarget/compile work
//	-timeout d         per-request wall-clock budget (0 = unlimited)
//	-max-bdd-nodes n   per-request BDD universe cap (0 = unlimited)
//	-max-routes n      per-request route enumeration cap (0 = default)
//	-max-queue n       pool-slot waiters admitted before shedding 429 (0 = unlimited)
//	-drain-timeout d   grace for in-flight requests after SIGTERM/SIGINT
//	-breaker-window n  per-model circuit-breaker outcome window (0 = off)
//	-breaker-rate f    failure rate that opens a model's circuit
//	-breaker-cooldown d  open → half-open probe cooldown
//	-faultpoints spec  arm fault-injection points (chaos testing; see
//	                   `record -faultpoints list`)
//
// Admission is one FIFO pool: every POST (one retarget, or one program
// to compile) takes one of -workers slots in arrival order; at most
// -max-queue requests wait, and the next is shed with 429 and
// Retry-After.  A model enters the memory tier only when a request asks
// for it, and the LRU (-cache-size) alone decides what stays.
//
// Every POST response carries a Server-Timing header: where that request's
// time went on this node, by phase — decode, qos (the slot wait), cache
// (its desc names the tier: mem, disk, miss, or coalesced when the
// request joined another's retarget), the retarget phases and compile
// stages that ran, render, and total — in milliseconds on the node's own
// clock.  `record -server -stats` prints it.
//
// A fleet is several independent nodes behind the sharding client
// (`record -server U1,U2,U3`, internal/rclient): nodes never talk to each
// other.  A node that lacks a model's artifact retargets it from the
// model the request carries, which costs less than fetching a copy; a
// by-key compile for a key the node does not hold answers 404.
//
// On SIGTERM/SIGINT the daemon drains: /healthz flips to 503, new work is
// refused with explicit statuses, in-flight requests get -drain-timeout to
// finish, and the artifact cache directory is flushed before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", ":8347", "listen address")
		debugAddr = flag.String("debug-addr", "", "profiling listener (pprof + /metrics); empty = disabled")
		drain     = flag.Duration("drain-timeout", 15*time.Second, "grace for in-flight requests on SIGTERM/SIGINT")
		faults    = flag.String("faultpoints", "", "arm fault-injection points: name[@match]=kind[:arg][*times],...")
		cfg       serverConfig
	)
	flag.StringVar(&cfg.nodeID, "node-id", "", "fleet node identity in /healthz and metrics (default: the listen address)")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "artifact store directory (empty = memory-only)")
	flag.IntVar(&cfg.cacheSize, "cache-size", 16, "in-memory target LRU capacity")
	flag.IntVar(&cfg.workers, "workers", 4, "bounded worker pool size")
	flag.DurationVar(&cfg.timeout, "timeout", 2*time.Minute, "per-request wall-clock budget (0 = unlimited)")
	flag.IntVar(&cfg.maxBDDNodes, "max-bdd-nodes", 0, "per-request BDD universe cap (0 = unlimited)")
	flag.IntVar(&cfg.maxRoutes, "max-routes", 0, "per-request route enumeration cap (0 = default)")
	flag.IntVar(&cfg.maxQueue, "max-queue", 64, "pool-slot waiters admitted before shedding with 429 (0 = unlimited)")
	flag.IntVar(&cfg.brkWindow, "breaker-window", 8, "per-model circuit-breaker outcome window (0 = breaker off)")
	flag.Float64Var(&cfg.brkRate, "breaker-rate", 0.5, "failure rate that opens a model's circuit")
	flag.DurationVar(&cfg.brkCooldown, "breaker-cooldown", 10*time.Second, "circuit open -> half-open probe cooldown")
	flag.Parse()

	if *faults != "" {
		if err := faultpoint.ArmSpec(*faults); err != nil {
			fmt.Fprintf(os.Stderr, "recordd: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "recordd: armed faultpoints: %v\n", faultpoint.Armed())
	}

	// Listen before building the server so an unset -node-id can default
	// to the concrete bound address (":8347" resolves to host:port here).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "recordd: %v\n", err)
		os.Exit(1)
	}
	if cfg.nodeID == "" {
		cfg.nodeID = ln.Addr().String()
	}

	s, err := newServer(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "recordd: %v\n", err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, obs.DebugMux(s.reg)); err != nil {
				fmt.Fprintf(os.Stderr, "recordd: debug listener: %v\n", err)
			}
		}()
		fmt.Printf("recordd debug listener on %s (pprof + /metrics)\n", *debugAddr)
	}
	fmt.Printf("recordd %s listening on %s (workers=%d, cache-dir=%q)\n",
		s.cfg.nodeID, ln.Addr(), s.cfg.workers, s.cfg.cacheDir)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	if err := serve(ln, s, *drain, sigs, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "recordd: %v\n", err)
		os.Exit(1)
	}
}

// serve runs the HTTP service on ln until a signal arrives on sigs, then
// drains gracefully: the server flips into refusal mode (queued waiters
// shed with 503, /healthz reports draining), in-flight requests get
// drainTimeout to finish, and the cache directory is flushed before
// returning.  Factored out of main so the chaos harness can exercise the
// full drain sequence in-process.
func serve(ln net.Listener, s *server, drainTimeout time.Duration, sigs <-chan os.Signal, logw io.Writer) error {
	srv := &http.Server{Handler: s.handler()}
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
		close(errc)
	}()

	select {
	case err, ok := <-errc:
		if ok && err != nil {
			return err
		}
		return fmt.Errorf("listener closed unexpectedly")
	case sig := <-sigs:
		fmt.Fprintf(logw, "recordd: %v: draining (timeout %v)\n", sig, drainTimeout)
	}

	s.beginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(logw, "recordd: drain timeout exceeded, closing: %v\n", err)
		srv.Close()
	}
	if err := s.cache.Close(); err != nil {
		fmt.Fprintf(logw, "recordd: cache flush: %v\n", err)
	}
	for err := range errc {
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(logw, "recordd: drained, exiting\n")
	return nil
}
