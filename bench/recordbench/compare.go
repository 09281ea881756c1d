package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads BENCHMARK.json from the working directory or the nearest
// parent that has one.
func loadSpec() (*benchSpec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s benchSpec
			if err := json.Unmarshal(b, &s); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &s, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no BENCHMARK.json in the working directory or above")
		}
		dir = parent
	}
}

// runSet pools the end-to-end metrics of every result document matching a
// pattern: workload → metric → one value per run.
type runSet map[string]map[string][]float64

func loadRuns(pattern string) (runSet, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files match %q", pattern)
	}
	set := runSet{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var doc document
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range doc.Results {
			if set[r.Workload] == nil {
				set[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				set[r.Workload][name] = append(set[r.Workload][name], v)
			}
		}
	}
	return set, nil
}

// runCompare prints, for every workload and end-to-end metric both sets
// hold, each set's median and quartiles and a verdict on B against A.
func runCompare(w io.Writer, patA, patB string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := loadRuns(patA)
	if err != nil {
		return err
	}
	b, err := loadRuns(patB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-21s %-34s %-34s %8s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.name][m.Name], b[wl.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa1, ma, qa3 := quartiles(va)
			qb1, mb, qb3 := quartiles(vb)
			fmt.Fprintf(w, "%-15s %-21s %-34s %-34s %+7.1f%% %s\n", wl.name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", ma, qa1, qa3, len(va)),
				fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", mb, qb1, qb3, len(vb)),
				100*(mb-ma)/ma, verdict(va, vb, m.Bound, m.Better == "higher"))
		}
	}
	return nil
}

// verdict judges set b against set a for one metric (choosing-metrics
// §6–8).  "worse": b's median is worse by more than the bound.  "better":
// b wins at least nine tenths of all (a, b) pairs and the medians differ
// by more than a's quartile spread.  "unresolved": a spread exceeds the
// bound, unless every b reads better (or worse) than every a.  "same"
// otherwise.
func verdict(a, b []float64, bound float64, higher bool) string {
	better := func(x, y float64) bool { return (higher && x > y) || (!higher && x < y) }
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	wins, losses := 0, 0
	for _, x := range a {
		for _, y := range b {
			switch {
			case better(y, x):
				wins++
			case better(x, y):
				losses++
			}
		}
	}
	pairs := len(a) * len(b)
	if (qa3-qa1)/math.Abs(ma) > bound || (qb3-qb1)/math.Abs(mb) > bound {
		switch {
		case wins == pairs:
			return "better"
		case losses == pairs:
			return "worse"
		}
		return "unresolved"
	}
	worse := (mb - ma) / math.Abs(ma)
	if higher {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "worse"
	case float64(wins) >= 0.9*float64(pairs) && math.Abs(mb-ma) > qa3-qa1:
		return "better"
	}
	return "same"
}
