// Command tracefuse merges span dumps from a recordd fleet into one
// cross-process Chrome trace.
//
// Each argument is either a node base URL (its /v1/debug/spans is
// fetched) or a path to a JSON file holding a previously saved dump.
// Spans join by trace ID, clocks align via request/response span-pair
// skew estimation, and every node gets its own pid lane named by its
// node identity — load the output in chrome://tracing or Perfetto to
// see one compile cross from the client (a saved dump) to the node that
// served it.
//
//	tracefuse -out fused.json http://n1:8347 http://n2:8347 http://n3:8347
//	tracefuse -trace 0123...ef -out fused.json http://n1:8347 http://n2:8347
//
// Flags:
//
//	-out file    output path (default fused-trace.json)
//	-trace id    keep only the given trace ID (32 hex digits)
//	-timeout d   total fetch budget (default 10s)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/tracefuse"
)

func main() {
	out := flag.String("out", "fused-trace.json", "output path for the merged Chrome trace")
	trace := flag.String("trace", "", "keep only this trace ID (32 hex digits)")
	timeout := flag.Duration("timeout", 10*time.Second, "total fetch budget")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "tracefuse: no endpoints or dump files (usage: tracefuse [flags] url|file ...)")
		os.Exit(2)
	}
	if err := run(flag.Args(), *out, *trace, *timeout); err != nil {
		fmt.Fprintf(os.Stderr, "tracefuse: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out, trace string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	var dumps []obs.SpanDump
	var urls []string
	for _, a := range args {
		if strings.HasPrefix(a, "http://") || strings.HasPrefix(a, "https://") {
			urls = append(urls, strings.TrimRight(a, "/"))
			continue
		}
		data, err := os.ReadFile(a)
		if err != nil {
			return err
		}
		var d obs.SpanDump
		if err := json.Unmarshal(data, &d); err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
		dumps = append(dumps, d)
	}
	fetched, err := tracefuse.Fetch(ctx, nil, urls)
	if err != nil {
		return err
	}
	dumps = append(dumps, fetched...)

	f, err := tracefuse.Fuse(dumps, tracefuse.Options{Trace: trace})
	if err != nil {
		return err
	}
	w, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := f.WriteChrome(w); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	total := 0
	for _, d := range dumps {
		total += len(d.Spans)
	}
	fmt.Printf("tracefuse: fused %d dumps (%d spans) into %s (nodes: %s)\n",
		len(dumps), total, out, strings.Join(f.Nodes, ", "))
	return nil
}
