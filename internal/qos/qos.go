// Package qos differentiates recordd traffic: priority classes with
// weighted admission (interactive vs. batch) and speculative pre-warm of
// hot models during idle capacity.
//
// The package is stdlib-only and nil-safe in the style of diag, obs and
// resilience: a nil *Scheduler admits everything immediately and a nil
// *Popularity forgets everything — so callers thread QoS through
// unconditionally and flip it on by constructing the pieces.
//
// Refusals are typed with internal/resilience errors (OverloadError,
// DrainingError), so the HTTP status mapping, Retry-After hints and the
// wire "kind" field behave identically whether a request was shed by the
// old uniform admission or by a class queue.
package qos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Class is a request priority class.  The zero value is Interactive, so
// an unclassified request is never accidentally demoted.
type Class uint8

const (
	// Interactive is latency-sensitive traffic: a developer waiting on
	// one compile.  Default for /v1/retarget and /v1/compile.
	Interactive Class = iota
	// Batch is throughput traffic: sweeps over the model × kernel
	// matrix.  Default for /v1/compile-batch; always shed first.
	Batch
	// NumClasses sizes per-class arrays.
	NumClasses = 2
)

// Classes lists every class in priority order, for ranging metrics.
var Classes = [NumClasses]Class{Interactive, Batch}

func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	}
	return "class(" + strconv.Itoa(int(c)) + ")"
}

// ParseClass maps a client-declared priority string onto a Class.
// Matching is case-insensitive and whitespace-tolerant; anything
// unrecognized — empty, garbage, emoji — degrades to the route default
// def.  It never fails: a bad header must never turn into a 4xx/5xx.
func ParseClass(s string, def Class) Class {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "interactive":
		return Interactive
	case "batch":
		return Batch
	}
	return def
}

// DefaultWeights is the dispatch weighting when none is configured:
// eight interactive grants for every batch grant under contention.
var DefaultWeights = [NumClasses]int{Interactive: 8, Batch: 1}

// DefaultRetryAfter is the per-class Retry-After hint attached to sheds:
// batch callers are told to back off harder than interactive ones.
var DefaultRetryAfter = [NumClasses]time.Duration{
	Interactive: time.Second,
	Batch:       2 * time.Second,
}

// ParseWeights parses a "-qos-weights" style spec: comma-separated
// class=weight pairs, e.g. "interactive=8,batch=1".  Omitted classes
// keep their DefaultWeights value; an empty spec is the defaults.
// Weights must be positive integers.
func ParseWeights(spec string) ([NumClasses]int, error) {
	w := DefaultWeights
	if strings.TrimSpace(spec) == "" {
		return w, nil
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, val, ok := strings.Cut(item, "=")
		if !ok {
			return w, fmt.Errorf("qos: weight %q is not class=weight", item)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n <= 0 {
			return w, fmt.Errorf("qos: weight %q must be a positive integer", item)
		}
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "interactive":
			w[Interactive] = n
		case "batch":
			w[Batch] = n
		default:
			return w, fmt.Errorf("qos: unknown class %q (want interactive or batch)", name)
		}
	}
	return w, nil
}
