// Command snowbench is the repository's benchmark. One process runs one
// named workload (or all four) against the internal packages directly,
// checks the outputs, and prints a report ending in one JSON line: the
// end-to-end metrics with --trace 0, or the per-layer metrics of a traced
// run with --trace 1. README.md describes the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash snowbench/run.sh --workload fuzz-syz --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) (*outcome, error){
	"fuzz-syz":      runFuzzSyz,
	"fuzz-snowplow": runFuzzSnowplow,
	"train":         runTrain,
	"cluster":       runCluster,
}

// workloadOrder is the order of --workload all.
var workloadOrder = []string{"fuzz-syz", "fuzz-snowplow", "train", "cluster"}

// A run sets its workload up at least minSetups times and until
// minSetupTime has passed.
const (
	minSetups    = 3
	minSetupTime = time.Second
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_s", "s"},
	{"work_per_s", "1/s"},
	{"quality", "score"},
	{"peak_rss_mb", "MB"},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: fuzz-syz, fuzz-snowplow, train, cluster or all")
		seed     = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "how long each workload measures")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(os.Stderr, "snowbench: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloadOrder, ", "))
			os.Exit(2)
		}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "snowbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}

	summary := result{Correct: true, Metrics: map[string]metricValue{}}
	var last result
	for _, n := range names {
		r := &run{workload: n, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1}
		if r.traced {
			r.tr = newTracer()
		}
		res, err := r.execute()
		if err != nil {
			fmt.Fprintf(os.Stderr, "snowbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		summary.Correct = summary.Correct && res.Correct
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
		for k, v := range res.Metrics {
			summary.Metrics[n+"/"+k] = v
		}
		last = res
	}
	if len(names) > 1 {
		last = summary
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snowbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !last.Correct {
		os.Exit(1)
	}
}

// execute runs one workload, prints its report and returns its result.
func (r *run) execute() (result, error) {
	e := environment(r)
	envLine, _ := json.Marshal(e)
	fmt.Printf("env: %s\n", envLine)
	o, err := workloads[r.workload](r)
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct:   len(o.failures) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, f := range o.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	fmt.Printf("accounting: %d operations attempted, %d failed\n", o.attempted, o.failed)
	for _, a := range o.accounting {
		fmt.Printf("accounting: %s\n", a)
	}
	for _, n := range o.named {
		fmt.Printf("metric %-24s %14.4f %-10s %s\n", n.name, n.value, n.unit, n.note)
	}
	if r.traced {
		r.fillShared(o)
		for _, l := range layerMetrics {
			v := o.layers[l.name]
			res.Metrics[l.name] = metricValue{Value: v, Unit: l.unit}
			fmt.Printf("layer  %-34s %16.4f %s\n", l.name, v, l.unit)
		}
		for _, l := range o.unmeasured {
			fmt.Printf("layer  (not measured) %s\n", l)
		}
		for _, t := range r.tr.totals() {
			fmt.Printf("span   %-24s %6d spans %12.1f ms total %12.1f ms self\n", t.name, t.count, t.totalMs, t.selfMs)
		}
	} else {
		fmt.Printf("calibration: loop median %.3f ms over %d samples, scaled to the %.0f ms reference; raw setup_s %.4f, op_s %.4f, work_per_s %.4f\n",
			1e3*median(r.calibS), len(r.calibS), 1e3*calibRef, median(o.setupS), median(o.opS), median(o.workRate))
		vals := map[string]float64{
			"setup_s":     median(scaled(o.setupS, o.setupScale, false)),
			"op_s":        median(o.opTimes()),
			"work_per_s":  median(o.perOp(o.workRate, true)),
			"quality":     o.quality,
			"peak_rss_mb": peakRSSMB(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
			fmt.Printf("e2e    %-24s %14.4f %s\n", m.name, vals[m.name], m.unit)
		}
	}
	dir := filepath.Join(".bench_build", "results")
	stem := fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, btoi(r.traced))
	if r.traced {
		if err := writeJSON(filepath.Join(dir, stem+"-spans.json"), r.tr.snapshot()); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := writeJSON(filepath.Join(dir, stem+".json"), map[string]any{
		"env": e, "result": res, "named": o.namedMap(), "failures": o.failures, "accounting": o.accounting,
		"calibration_ms": 1e3 * median(r.calibS),
		"samples":        map[string][]float64{"setup_s": o.setupS, "setup_scale": o.setupScale, "op_s": o.opS, "op_scale": o.opScale, "work_per_s": o.workRate},
	}); err != nil {
		return result{}, fmt.Errorf("writing result: %w", err)
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB), less the calibration tables, which stay resident from
// the first calibration on.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss)/1024 - float64(len(calibTables)*calibTableBytes)/(1<<20)
}

// memDelta accumulates runtime allocation and GC counters over operations.
type memDelta struct {
	ops                           int
	work                          float64 // work units of the operations
	allocBytes, pauseNs, gcCycles float64
}

func (d *memDelta) add(before, after *runtime.MemStats, work float64) {
	d.ops++
	d.work += work
	d.allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
	d.pauseNs += float64(after.PauseTotalNs - before.PauseTotalNs)
	d.gcCycles += float64(after.NumGC - before.NumGC)
}
