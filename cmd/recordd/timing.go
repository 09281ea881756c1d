package main

import (
	"context"
	"strconv"
	"time"

	"repro/internal/obs"
)

// requestSpans bounds one request's tracer.  A cold retarget of the
// largest bundled model records about twenty spans and a compile about
// seven, far below the bound; a request that overran it would only
// under-report in its header, never fail.  The tracer's rings grow on
// demand, so the bound costs a small request nothing.
const requestSpans = 4096

// timingMetrics are the Server-Timing metrics in header order, each the
// sum of the request's spans of that name: recordd's own steps, then the
// retarget phases and compile stages core names them by, then the
// response render.  "cache" is listed without the retarget it ran.
var timingMetrics = []string{
	"decode", "qos", "cache",
	"frontend", "ise", "extend", "grammar", "burs", "freeze",
	"bind", "select", "peephole", "compact", "encode",
	"render",
}

// clock is one request's timing: a tracer of its own, which every layer
// below the handler records into through the request's scope, and the
// instant the request arrived.  Each node times its requests on its own
// clock, and the response carries the breakdown.
type clock struct {
	start time.Time
	scope *obs.Scope
}

type clockKey struct{}

// withClock starts a request's clock and attaches it to ctx.
func withClock(ctx context.Context, reg *obs.Registry) context.Context {
	c := &clock{start: time.Now(), scope: obs.NewScope(reg, obs.NewTracer(obs.WithMaxSpans(requestSpans)))}
	return context.WithValue(ctx, clockKey{}, c)
}

// clockFrom returns the request's clock, or nil for a GET, which has none.
func clockFrom(ctx context.Context) *clock {
	c, _ := ctx.Value(clockKey{}).(*clock)
	return c
}

// serverTiming renders the request's Server-Timing header
// (https://www.w3.org/TR/server-timing/): the durations of timingMetrics
// that ran, in milliseconds, and the total so far.  The cache metric
// names the tier that answered in its desc and excludes the retarget it
// ran, whose phases are listed on their own.
func (c *clock) serverTiming() string {
	sums := make(map[string]time.Duration, len(timingMetrics)+1)
	tier := ""
	for _, si := range c.scope.Tracer().Snapshot() {
		if !si.Ended {
			continue
		}
		sums[si.Name] += si.Dur
		if si.Name == "cache" {
			for _, a := range si.Attrs {
				if a.Key == "tier" {
					tier, _ = a.Value.(string)
				}
			}
		}
	}
	if _, ok := sums["cache"]; ok {
		sums["cache"] -= sums["retarget"]
	}
	var b []byte
	for _, name := range timingMetrics {
		d, ok := sums[name]
		if !ok {
			continue
		}
		b = append(b, name...)
		if name == "cache" && tier != "" {
			b = append(b, ";desc="...)
			b = append(b, tier...)
		}
		b = appendDur(b, d)
		b = append(b, ", "...)
	}
	b = append(b, "total"...)
	return string(appendDur(b, time.Since(c.start)))
}

// appendDur appends a Server-Timing dur parameter: milliseconds to the
// microsecond.
func appendDur(b []byte, d time.Duration) []byte {
	b = append(b, ";dur="...)
	return strconv.AppendFloat(b, float64(d.Microseconds())/1e3, 'f', 3, 64)
}
