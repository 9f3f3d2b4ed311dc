package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json the program reads: the metric
// lists, and for the end-to-end ones the direction and the bound.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives, so that it reads the same as the driver's own check.
func spread(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = max(1, min(j, n-1))
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return ratio(quartile(3)-quartile(1), median(s))
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, b over a, and the verdict against the manifest's bound. A row is
// unresolved when either side's rep-to-rep spread exceeds the bound: the
// benchmark cannot tell such a pair apart, so it does not call it unchanged.
func compareFiles(w io.Writer, manifestPath, aPath, bPath string) error {
	var m manifest
	var a, b resultFile
	if err := readJSON(manifestPath, &m); err != nil {
		return err
	}
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	if a.Traced || b.Traced {
		return fmt.Errorf("end-to-end metrics are never taken from a traced run")
	}
	byName := map[string]*report{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	worse := 0
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %22s  %s\n", "workload", "metric", "a", "b", "b/a", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			continue
		}
		for _, mm := range m.EndToEnd {
			va, vb := ra.Metrics[mm.Name], rb.Metrics[mm.Name]
			change := ratio(vb.Value, va.Value) - 1 // > 0: b is larger
			if mm.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			sa, sb := spread(va.Samples), spread(vb.Samples)
			switch {
			case sa > mm.Bound || sb > mm.Bound:
				verdict = fmt.Sprintf("unresolved (spread a %.1f%%, b %.1f%%, bound %.0f%%)",
					100*sa, 100*sb, 100*mm.Bound)
			case change > mm.Bound:
				verdict = fmt.Sprintf("worse (bound %.0f%%)", 100*mm.Bound)
				worse++
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %8.4f of a=%-8.4g  %s\n",
				ra.Workload, mm.Name, va.Value, vb.Value, ratio(vb.Value, va.Value), va.Value, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse than the bound", worse)
	}
	return nil
}
