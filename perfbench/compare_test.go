package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(data, n=4) values computed with Python 3.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{4, 8}, [3]float64{3, 6, 9}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
	}
	for _, c := range cases {
		got := quartiles(c.in)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Fatalf("quartiles(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := bound{higherBetter: false, share: 0.1}
	higher := bound{higherBetter: true, share: 0.1}
	base := [3]float64{95, 100, 105}
	for _, c := range []struct {
		b    [3]float64
		bd   bound
		want string
	}{
		{[3]float64{110, 115, 120}, lower, "worse"},      // 15% slower, bound 10%
		{[3]float64{104, 108, 112}, lower, "unresolved"}, // slower but within the bound
		{[3]float64{80, 85, 90}, lower, "better"},        // clears A's quartiles
		{[3]float64{80, 85, 96}, lower, "unresolved"},    // quartiles overlap
		{[3]float64{80, 85, 90}, higher, "worse"},
		{[3]float64{110, 115, 120}, higher, "better"},
	} {
		if got := judge(base, c.b, c.bd); got != c.want {
			t.Fatalf("judge(%v, %v, %+v) = %s, want %s", base, c.b, c.bd, got, c.want)
		}
	}
}

func TestRunCompare(t *testing.T) {
	root := t.TempDir()
	spec := `{"end_to_end": [{"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}`
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(dir string, seed int64, v float64) {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(record{Workload: "w", Seed: seed, Metrics: []metric{{Name: "p50_us", Unit: "us", Value: v}}})
		if err := os.WriteFile(filepath.Join(root, dir, "r"+string(rune('0'+seed))+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for s, v := range []float64{100, 101, 99, 100, 102} {
		write("a", int64(s), v)
		write("b", int64(s), v*1.3)
	}
	wd, _ := os.Getwd()
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out strings.Builder
	if err := runCompare(&out, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "p50_us") || !strings.Contains(out.String(), "worse") {
		t.Fatalf("compare output:\n%s", out.String())
	}
}
