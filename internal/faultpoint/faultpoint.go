// Package faultpoint provides named, test-activatable fault-injection
// hooks planted across the retargeting pipeline (ISE, BDD, grammar,
// simulator, ...), so graceful-degradation paths can be exercised
// deterministically from tests and from the driver's -faultpoints flag.
//
// A hook site calls
//
//	if err := faultpoint.Hit("ise.route.explosion", destName); err != nil { ... }
//
// and behaves normally (nil, a single atomic load) unless a matching
// Action has been armed.  Actions either return an error, panic (to test
// recovery boundaries), or sleep (to test deadline budgets).  An action can
// be restricted to hits whose detail string contains a substring, and by
// default fires exactly once, so "break one instruction, keep the rest"
// scenarios are a one-liner.
//
// The planted sites are listed by Sites (and by `record -faultpoints
// list`): eight pipeline sites from the retargeting path plus three
// service-layer sites (cache disk write, worker spawn, response encode)
// exercised by the recordd chaos harness.
package faultpoint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Site describes one planted faultpoint: its name and where in the
// pipeline or service it fires.
type Site struct {
	Name  string
	Where string
}

// sites is the authoritative list of planted faultpoints.  Adding a
// Hit call to new code means adding a row here; TestSitesMatchHits keeps
// the two in sync.
var sites = []Site{
	{"bdd.ite", "BDD apply step past the terminal cases and the op cache (panics on error kind)"},
	{"bitvec.slice", "symbolic word slicing (panics on error kind)"},
	{"grammar.rule", "per-template rule lowering (detail: template dest)"},
	{"hdl.parse", "start of MDL parsing"},
	{"ise.extract", "start of instruction-set extraction (detail: model name)"},
	{"ise.route.explosion", "per RT-destination enumeration (detail: destination)"},
	{"rcache.disk.write", "artifact cache disk write (detail: artifact key)"},
	{"recordd.response.encode", "recordd response serialization"},
	{"recordd.worker.spawn", "recordd worker-pool slot handoff"},
	{"sim.step", "per simulated machine cycle (detail: netlist name)"},
}

// Sites returns every planted faultpoint, sorted by name.
func Sites() []Site {
	out := make([]Site, len(sites))
	copy(out, sites)
	return out
}

// Kind selects what an armed action does when its faultpoint is hit.
type Kind int

// Action kinds.
const (
	KindError Kind = iota // Hit returns a *Fault error
	KindPanic             // Hit panics with a *Fault
	KindDelay             // Hit sleeps for Action.Delay, then returns nil
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Action describes one armed fault.
type Action struct {
	Kind Kind
	// Match restricts the action to hits whose detail contains this
	// substring; empty matches every hit.
	Match string
	// Times is how often the action fires before disarming itself;
	// <= 0 means every matching hit.
	Times int
	// Delay is the sleep duration for KindDelay.
	Delay time.Duration
}

// Fault is the error returned (or panicked) by a triggered faultpoint.
type Fault struct {
	Name   string
	Detail string
}

func (f *Fault) Error() string {
	if f.Detail != "" {
		return fmt.Sprintf("injected fault %s (at %s)", f.Name, f.Detail)
	}
	return fmt.Sprintf("injected fault %s", f.Name)
}

type entry struct {
	act  Action
	left int // remaining firings; <0 = unlimited
}

var (
	mu      sync.Mutex
	armed   map[string][]*entry
	nArmed  atomic.Int32
	hitLog  map[string]int
	logHits bool
)

// Arm registers an action for the named faultpoint.  Multiple actions may
// be armed on one name; the first matching, non-exhausted one fires.
func Arm(name string, a Action) {
	mu.Lock()
	defer mu.Unlock()
	if armed == nil {
		armed = make(map[string][]*entry)
	}
	left := a.Times
	if left == 0 {
		left = 1
	}
	armed[name] = append(armed[name], &entry{act: a, left: left})
	nArmed.Add(1)
}

// Disarm removes every action armed on name.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if es, ok := armed[name]; ok {
		nArmed.Add(int32(-len(es)))
		delete(armed, name)
	}
}

// Reset disarms everything and clears the hit log (test cleanup).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed = nil
	hitLog = nil
	logHits = false
	nArmed.Store(0)
}

// Armed returns the sorted names that still have at least one live
// (non-exhausted) action.
func Armed() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(armed))
	for n, es := range armed {
		for _, e := range es {
			if e.left != 0 {
				out = append(out, n)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// RecordHits makes Hit count every invocation (armed or not) so tests can
// assert that a site is actually exercised.
func RecordHits(on bool) {
	mu.Lock()
	defer mu.Unlock()
	logHits = on
	if on && hitLog == nil {
		hitLog = make(map[string]int)
	}
}

// Hits returns how often the named site was hit since RecordHits(true).
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	return hitLog[name]
}

// Hit is the hook planted at instrumented sites.  With nothing armed it is
// a single atomic load.  When an armed action matches, KindError returns a
// *Fault, KindPanic panics with a *Fault, and KindDelay sleeps.
func Hit(name, detail string) error {
	if nArmed.Load() == 0 {
		return nil
	}
	mu.Lock()
	if logHits {
		hitLog[name]++
	}
	var fire *Action
	for _, e := range armed[name] {
		if e.left == 0 {
			continue
		}
		if e.act.Match != "" && !strings.Contains(detail, e.act.Match) {
			continue
		}
		if e.left > 0 {
			e.left--
			if e.left == 0 {
				nArmed.Add(-1)
			}
		}
		a := e.act
		fire = &a
		break
	}
	mu.Unlock()
	if fire == nil {
		return nil
	}
	switch fire.Kind {
	case KindPanic:
		panic(&Fault{Name: name, Detail: detail})
	case KindDelay:
		time.Sleep(fire.Delay)
		return nil
	default:
		return &Fault{Name: name, Detail: detail}
	}
}

// ArmSpec arms faultpoints from a comma-separated textual spec, the syntax
// of the driver's -faultpoints flag:
//
//	name[@match]=kind[:arg][*times]
//
// kind is error, panic or delay; arg is the sleep duration for delay
// (default 10ms); times is the firing count (default 1, "*" alone = every
// hit).  Examples:
//
//	ise.route.explosion=error
//	ise.route.explosion@ram.m=error
//	sim.step=delay:5ms*
//	bdd.ite=panic*3
func ArmSpec(spec string) error {
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, rhs, ok := strings.Cut(item, "=")
		if !ok || name == "" || rhs == "" {
			return fmt.Errorf("faultpoint: bad spec %q (want name[@match]=kind[:arg][*times])", item)
		}
		var a Action
		name, a.Match, _ = strings.Cut(name, "@")
		if star := strings.LastIndex(rhs, "*"); star >= 0 {
			times := rhs[star+1:]
			rhs = rhs[:star]
			if times == "" {
				a.Times = -1
			} else {
				n, err := strconv.Atoi(times)
				if err != nil || n <= 0 {
					return fmt.Errorf("faultpoint: bad repeat count %q in %q", times, item)
				}
				a.Times = n
			}
		}
		kind, arg, _ := strings.Cut(rhs, ":")
		switch kind {
		case "error":
			a.Kind = KindError
		case "panic":
			a.Kind = KindPanic
		case "delay":
			a.Kind = KindDelay
			a.Delay = 10 * time.Millisecond
			if arg != "" {
				d, err := time.ParseDuration(arg)
				if err != nil {
					return fmt.Errorf("faultpoint: bad delay %q in %q: %v", arg, item, err)
				}
				a.Delay = d
			}
		default:
			return fmt.Errorf("faultpoint: unknown kind %q in %q (want error, panic or delay)", kind, item)
		}
		if a.Kind != KindDelay && arg != "" {
			return fmt.Errorf("faultpoint: kind %s takes no argument (got %q in %q)", kind, arg, item)
		}
		Arm(name, a)
	}
	return nil
}
