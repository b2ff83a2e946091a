package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// runCompare reads two result sets — directories of run records, e.g.
// copies of .bench_build/perfbench/results made on a parent commit and on
// a change — and prints, per workload and metric, each side's median and
// quartiles and a verdict. For an end-to-end metric the verdict uses the
// bound BENCHMARK.json fixes for it:
//
//	worse       B's median is worse than A's by more than the bound
//	better      B's median is better than A's by more than A's own
//	            quartile spread, and B's quartile range clears A's
//	unresolved  anything else
//
// Per-layer metrics have no bound and no direction; they are shown
// without a verdict.
func runCompare(w io.Writer, dirA, dirB string) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	a, err := loadRecords(dirA)
	if err != nil {
		return err
	}
	b, err := loadRecords(dirB)
	if err != nil {
		return err
	}
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("no workload has runs in both %s and %s", dirA, dirB)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-30s %-32s %5s %12s %12s %12s   %5s %12s %12s %12s  %s\n",
		"workload", "metric", "runs", "A q1", "A median", "A q3", "runs", "B q1", "B median", "B q3", "verdict")
	for _, k := range keys {
		names := make([]string, 0, len(a[k]))
		for name := range a[k] {
			if _, ok := b[k][name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			va, vb := a[k][name], b[k][name]
			qa, qb := quartiles(va), quartiles(vb)
			verdict := "-"
			if bd, ok := bounds[name]; ok {
				verdict = judge(qa, qb, bd)
			}
			fmt.Fprintf(w, "%-30s %-32s %5d %12.4g %12.4g %12.4g   %5d %12.4g %12.4g %12.4g  %s\n",
				k, name, len(va), qa[0], qa[1], qa[2], len(vb), qb[0], qb[1], qb[2], verdict)
		}
	}
	return nil
}

type bound struct {
	higherBetter bool
	share        float64
}

// loadBounds reads the end-to-end metrics' bounds from BENCHMARK.json.
func loadBounds() (map[string]bound, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]bound{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = bound{m.Better == "higher", m.Bound}
	}
	return out, nil
}

// loadRecords groups a directory's run records as
// "workload (untraced|traced)" -> metric -> values.
func loadRecords(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		key := rec.Workload + " (untraced)"
		if rec.Traced {
			key = rec.Workload + " (traced)"
		}
		if out[key] == nil {
			out[key] = map[string][]float64{}
		}
		for _, m := range rec.Metrics {
			out[key][m.Name] = append(out[key][m.Name], m.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no run records", dir)
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// default exclusive method); a single value is all three.
func quartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return [3]float64{}
	}
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

func judge(a, b [3]float64, bd bound) string {
	if a[1] == 0 {
		return "unresolved"
	}
	// gain > 0 means B is better than A.
	gain := (b[1] - a[1]) / a[1]
	clears := b[0] > a[2]
	if !bd.higherBetter {
		gain = -gain
		clears = b[2] < a[0]
	}
	spreadA := (a[2] - a[0]) / a[1]
	switch {
	case -gain > bd.share:
		return "worse"
	case gain > spreadA && clears:
		return "better"
	default:
		return "unresolved"
	}
}
