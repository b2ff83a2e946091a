// Command perfbench is the repository's benchmark: four workloads driven
// through the public Go API of module repro, each checked by its own
// correctness oracle. An untraced run (--trace 0) reports the end-to-end
// metrics; a traced run (--trace 1) of the same seed and length reports
// the per-layer breakdown, taken from spans recorded around the calls the
// benchmark makes into each layer. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload embedded-mix --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seed 1 --seconds 10
//	perfbench --compare <result-dir-a> <result-dir-b>
//
// Every run also writes its full record (host, seed, parameters, chosen
// configuration, all metrics with sample counts) under
// .bench_build/perfbench/results, and a traced run its spans under
// .bench_build/perfbench/spans.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

// outDir holds everything a run writes, relative to the checkout root.
const outDir = ".bench_build/perfbench"

// dataSeed fixes each workload's database (the generated population, the
// advisor's path pool); --seed draws the operation stream run against it.
// Runs under different seeds therefore measure the same database, and
// their spread is the run-to-run noise a change must clear rather than
// the differences between randomly drawn 11k-object populations.
const dataSeed = 1

// metric is one reported number. n is its sample count where it is a
// statistic over samples (zero otherwise).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     uint64  `json:"n,omitempty"`
}

// result is one workload run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	config    string         // the index configuration served (or the advisor's search space)
	params    map[string]any // recorded run parameters: scale, rate, pool pages, WAL policy, ...
	endToEnd  []metric       // the gated metrics: BENCHMARK.json end_to_end
	report    []metric       // every other end-to-end figure, printed and recorded
	layers    []metric       // per-layer metrics (traced run only)
}

func (r *result) e2e(name, unit string, v float64, n uint64) {
	r.endToEnd = append(r.endToEnd, metric{name, unit, v, n})
}

func (r *result) rep(name, unit string, v float64, n uint64) {
	r.report = append(r.report, metric{name, unit, v, n})
}

func (r *result) layer(name, unit string, v float64, n uint64) {
	r.layers = append(r.layers, metric{name, unit, v, n})
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	expected expectation
}

type workloadFunc func(rc runConfig) (*result, error)

var workloads = []struct {
	name string
	run  workloadFunc
}{
	{"embedded-mix", runEmbeddedMix},
	{"net-predicate", runNetPredicate},
	{"durable-write", runDurableWrite},
	{"advise", runAdvise},
}

// expectation is what perfbench/expected.json records for one workload:
// the configuration its set-up must choose, and the open-loop rate where
// there is one.
type expectation struct {
	Config   string  `json:"config"`
	RatePerS float64 `json:"rate_per_s,omitempty"`
}

func loadExpectations() (map[string]expectation, error) {
	b, err := os.ReadFile(filepath.Join("perfbench", "expected.json"))
	if err != nil {
		return nil, err
	}
	var out map[string]expectation
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("perfbench/expected.json: %w", err)
	}
	return out, nil
}

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result directories given as arguments")
	calibrate := flag.Bool("calibrate", false, "measure net-predicate's saturated rate and exit")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("--compare takes two result directories"))
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	exp, err := loadExpectations()
	if err != nil {
		fatal(err)
	}
	if *calibrate {
		rate, err := calibrateNet(*seed, *seconds)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("net-predicate saturated rate: %.0f req/s (record about half in perfbench/expected.json)\n", rate)
		return
	}
	if *seconds < 1 {
		fatal(errors.New("--seconds must be at least 1"))
	}
	if *workload == "all" {
		os.Exit(runAll(exp, *seed, *seconds, *traceFlag == 1))
	}
	var run workloadFunc
	for _, w := range workloads {
		if w.name == *workload {
			run = w.run
		}
	}
	if run == nil {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	rc := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, expected: exp[*workload]}
	res, err := execute(rc, run)
	if err != nil {
		fatal(err)
	}
	fmt.Println(resultLine(res, rc.trace))
	if !res.correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// execute runs one workload, checks the configuration it chose against
// the recorded one, prints the report and saves the record.
func execute(rc runConfig, run workloadFunc) (*result, error) {
	runtime.GC()
	res, err := run(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rc.workload, err)
	}
	if rc.expected.Config == "" || res.config != rc.expected.Config {
		fmt.Fprintf(os.Stderr, "perfbench: %s chose configuration %q; perfbench/expected.json records %q\n",
			rc.workload, res.config, rc.expected.Config)
		res.correct = false
	}
	if rc.trace {
		res.layers = completeLayers(res.layers)
	}
	printReport(rc, res)
	if err := saveRecord(rc, res); err != nil {
		return nil, err
	}
	return res, nil
}

func runAll(exp map[string]expectation, seed int64, seconds int, traced bool) int {
	code := 0
	sum := &result{correct: true}
	for _, w := range workloads {
		rc := runConfig{workload: w.name, seed: seed, seconds: seconds, trace: traced, expected: exp[w.name]}
		res, err := execute(rc, w.run)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		if !res.correct {
			code = 1
		}
		sum.correct = sum.correct && res.correct
		sum.attempted += res.attempted
		sum.failed += res.failed
		ms := res.endToEnd
		if traced {
			ms = res.layers
		}
		for _, m := range ms {
			m.Name = w.name + "." + m.Name
			sum.endToEnd = append(sum.endToEnd, m)
		}
	}
	fmt.Println(resultLine(sum, false))
	return code
}

// resultLine renders the final JSON line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func resultLine(res *result, traced bool) string {
	ms := res.endToEnd
	if traced {
		ms = res.layers
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, m := range ms {
		metrics[m.Name] = val{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		panic(err) // a map of plain floats and strings always marshals
	}
	return string(b)
}

func printReport(rc runConfig, res *result) {
	mode := "untraced"
	if rc.trace {
		mode = "traced"
	}
	host := experiments.CollectHost()
	fmt.Printf("== %s (%s) seed=%d data_seed=%d seconds=%d host=%s/%s %s cpus=%d gomaxprocs=%d\n",
		rc.workload, mode, rc.seed, dataSeed, rc.seconds, host.GOOS, host.GOARCH, host.GoVersion, host.NumCPU, host.GOMAXPROCS)
	keys := make([]string, 0, len(res.params))
	for k := range res.params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var ps []string
	for _, k := range keys {
		ps = append(ps, fmt.Sprintf("%s=%v", k, res.params[k]))
	}
	fmt.Printf("   params: %s\n   config: %s\n", strings.Join(ps, " "), res.config)
	fmt.Printf("   correct=%v attempted=%d failed=%d fail_ratio=%g\n", res.correct, res.attempted, res.failed,
		float64(res.failed)/float64(max(res.attempted, 1)))
	show := func(ms []metric) {
		for _, m := range ms {
			if m.N > 0 {
				fmt.Printf("   %-34s %14.4f %-8s (n=%d)\n", m.Name, m.Value, m.Unit, m.N)
			} else {
				fmt.Printf("   %-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
			}
		}
	}
	show(res.endToEnd)
	show(res.report)
	show(res.layers)
}

// record is the saved form of one run, read back by --compare.
type record struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	DataSeed  int64                `json:"data_seed"`
	Seconds   int                  `json:"seconds"`
	Traced    bool                 `json:"traced"`
	Host      experiments.HostInfo `json:"host"`
	Params    map[string]any       `json:"params"`
	Config    string               `json:"config"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   []metric             `json:"metrics"`
	Time      string               `json:"time"`
}

func saveRecord(rc runConfig, res *result) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ms := append(append(append([]metric{}, res.endToEnd...), res.report...), res.layers...)
	rec := record{
		Workload: rc.workload, Seed: rc.seed, DataSeed: dataSeed, Seconds: rc.seconds, Traced: rc.trace,
		Host: experiments.CollectHost(), Params: res.params, Config: res.config,
		Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: ms, Time: time.Now().UTC().Format(time.RFC3339),
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-trace%d-seed%d.json", rc.workload, boolInt(rc.trace), rc.seed)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// saveTrace writes a traced run's spans next to its record.
func saveTrace(rc runConfig, tr *trace) error {
	dir := filepath.Join(outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv.gz", rc.workload, rc.seed)))
}
