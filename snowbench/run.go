package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"github.com/repro/snowplow/internal/rng"
)

// run is one workload run's settings and shared state.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	tr       *tracer   // nil unless traced
	calibS   []float64 // calibration loop times, one per set-up and operation
}

// named is a workload metric under the name README.md gives it.
type named struct {
	name  string
	value float64
	unit  string
	note  string
}

// outcome is what one workload run measured and checked.
type outcome struct {
	setupS []float64 // wall time of each set-up
	opS    []float64 // wall time of each untraced operation
	// setupScale and opScale convert each set-up's and operation's wall
	// time to reference-host seconds (see calibrate).
	setupScale, opScale []float64
	tracedOpS           []float64 // wall time of each traced operation
	workRate            []float64 // work units per second, one per untraced operation
	quality             float64

	named      []named
	layers     map[string]float64
	unmeasured []string // per-layer metrics this workload cannot measure, with the reason
	mem        memDelta // over untraced operations

	attempted, failed int64
	accounting        []string
	failures          []string
}

func (o *outcome) add(name string, value float64, unit, note string) {
	o.named = append(o.named, named{name, value, unit, note})
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) namedMap() map[string]metricValue {
	m := map[string]metricValue{}
	for _, n := range o.named {
		m[n.name] = metricValue{Value: n.value, Unit: n.unit}
	}
	return m
}

// timing describes a sample of timings as its median and tail.
func timing(xs []float64) string {
	if v, p, ok := tail(xs); ok {
		return fmt.Sprintf("median of %d; p%.0f %.4f", len(xs), p, v)
	}
	return fmt.Sprintf("median of %d (too few for a tail)", len(xs))
}

// subSeeds derives the run's per-operation seeds from --seed.
func subSeeds(seed uint64, n int) []uint64 {
	r := rng.New(seed ^ 0x5b0e5eed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// setups times calls of setup, at least minSetups of them and more until
// minSetupTime has passed, and keeps the last result; setup_s is the
// median, so neither a cold first set-up nor a slow moment decides it.
func (r *run) setups(o *outcome, setup func(parent int64) error) error {
	begin := time.Now()
	for i := 0; i < minSetups || time.Since(begin) < minSetupTime; i++ {
		runtime.GC()
		scale := calibRef / r.calibrate()
		id := r.tr.open()
		start := time.Now()
		err := setup(id)
		o.setupS = append(o.setupS, time.Since(start).Seconds())
		o.setupScale = append(o.setupScale, scale)
		r.tr.close(id, "setup", 0, start)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	return nil
}

// loop runs whole cycles of operations until the measuring window has
// closed; operation i repeats the input of i%cycle, so every input weighs
// the same in a median. In a traced run cycles alternate between traced
// and untraced, so that tracing overhead is measured inside one run on the
// same inputs. op returns the operation's timed wall clock and its work
// units; an error counts the operation as failed. Each untraced
// operation's scale comes from the calibrations just before and just after
// it.
func (r *run) loop(o *outcome, cycle int, op func(i int, traced bool) (wall time.Duration, work float64, err error)) {
	minOps := cycle
	if r.traced {
		minOps = 2 * cycle
	}
	start := time.Now()
	var before, after runtime.MemStats
	pending, pendingCal := -1, 0.0 // the operation awaiting its closing calibration
	settle := func(cal float64) {
		if pending >= 0 {
			o.opScale[pending] = 2 * calibRef / (pendingCal + cal)
			pending = -1
		}
	}
	for i := 0; i < minOps || i%cycle != 0 || time.Since(start) < r.seconds; i++ {
		traced := r.traced && (i/cycle)%2 == 0
		// Each operation starts from a collected heap, so garbage left by
		// the previous one neither slows it nor inflates peak_rss_mb.
		runtime.GC()
		cal := r.calibrate()
		settle(cal)
		if !traced {
			runtime.ReadMemStats(&before)
		}
		wall, work, err := op(i, traced)
		o.attempted++
		if err != nil {
			o.failed++
			o.failf("operation %d: %v", i, err)
			continue
		}
		if traced {
			o.tracedOpS = append(o.tracedOpS, wall.Seconds())
			continue
		}
		runtime.ReadMemStats(&after)
		o.mem.add(&before, &after, work)
		o.opS = append(o.opS, wall.Seconds())
		o.opScale = append(o.opScale, 0)
		pending, pendingCal = len(o.opScale)-1, cal
		o.workRate = append(o.workRate, work/wall.Seconds())
	}
	settle(r.calibrate())
}

// calibRef is the calibration loop's time on the reference host: the
// 2-core host the benchmark was defined on, in its typical state.
const calibRef = 0.011

// calibTableBytes sizes each core's calibration table: four times a
// core's L2, so the loop, like the campaigns, leans on the shared L3 and
// memory that other tenants of the host contend for.
const calibTableBytes = 8 << 20

// calibTables live outside the Go heap, so they change neither the
// workloads' GC pacing nor the heap; peakRSSMB subtracts them.
var (
	calibTables [][]uint64
	calibSink   uint64
)

// calibrate times a fixed loop of random read-modify-writes over a table
// per core, on every core at once; the slowest core decides, as it does
// for the campaigns' epoch barriers. When other tenants load the host, the
// workloads slow down by up to a half from one run to the next; this loop
// slows down with them, so the end-to-end timings are scaled by it.
func calibrate() float64 {
	n := runtime.GOMAXPROCS(0)
	for len(calibTables) < n {
		b, err := syscall.Mmap(-1, 0, calibTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("snowbench: mapping the calibration table: " + err.Error())
		}
		t := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), calibTableBytes/8)
		for i := range t {
			t[i] = uint64(i) // make every page resident now
		}
		calibTables = append(calibTables, t)
	}
	var wg sync.WaitGroup
	sums := make([]uint64, n)
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := uint64(88172645463325252) + uint64(g)
			t := calibTables[g]
			mask := uint64(len(t) - 1)
			for i := 0; i < 1_000_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				t[x&mask] += x
			}
			sums[g] = t[7]
		}(g)
	}
	wg.Wait()
	calibSink += sums[0]
	return time.Since(start).Seconds()
}

// calibrate times the calibration loop and records the sample; calibRef
// over a sample scales a wall time measured next to it to reference-host
// seconds. Pairing each measurement with its own calibrations follows the
// host's drift within a run as well as between runs.
func (r *run) calibrate() float64 {
	t := calibrate()
	r.calibS = append(r.calibS, t)
	return t
}

// scaled returns xs[i]*scale[i], or xs[i]/scale[i] for rates
// (inverse=true).
func scaled(xs, scale []float64, inverse bool) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if inverse {
			out[i] = x / scale[i]
		} else {
			out[i] = x * scale[i]
		}
	}
	return out
}

// opTimes are the untraced operations' wall times in reference-host
// seconds; perOp scales another per-operation sample of times (or, with
// inverse, of rates) the same way.
func (o *outcome) opTimes() []float64 { return scaled(o.opS, o.opScale, false) }

func (o *outcome) perOp(xs []float64, inverse bool) []float64 { return scaled(xs, o.opScale, inverse) }

// layerMetrics lists the per-layer metrics of a traced run, in
// BENCHMARK.json order. A layer the workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"exec.run_us_p50", "us"},
	{"exec.run_us_p99", "us"},
	{"exec.run_us_mean", "us"},
	{"exec.busy_share", "share"},
	{"fuzzer.epochs", "count"},
	{"fuzzer.epoch_ms_p50", "ms"},
	{"fuzzer.epoch_ms_p99", "ms"},
	{"fuzzer.barrier_wait_share", "share"},
	{"fuzzer.guided_exec_share", "share"},
	{"fuzzer.guided_edges_per_kexec", "edges/kexec"},
	{"fuzzer.randarg_edges_per_kexec", "edges/kexec"},
	{"fuzzer.crashes_found", "count"},
	{"corpus.size", "count"},
	{"serve.submitted", "count"},
	{"serve.refused", "count"},
	{"serve.failed", "count"},
	{"serve.retries", "count"},
	{"serve.fail_share", "share"},
	{"serve.predictions_per_s", "1/s"},
	{"serve.queue_wait_us_p50", "us"},
	{"serve.queue_wait_us_p99", "us"},
	{"serve.latency_us_p50", "us"},
	{"serve.latency_us_p99", "us"},
	{"serve.batch_size_mean", "count"},
	{"serve.batches", "count"},
	{"qgraph.cache_hit_share", "share"},
	{"qgraph.compile_s", "s"},
	{"nn.infer_kernel_us_per_batch", "us"},
	{"nn.pool_reuse_share", "share"},
	{"pmm.train_s", "s"},
	{"pmm.train_epoch_s_mean", "s"},
	{"pmm.grad_reduce_wait_share", "share"},
	{"pmm.minibatches", "count"},
	{"pmm.eval_s", "s"},
	{"dataset.collect_s", "s"},
	{"dataset.mutations", "count"},
	{"dataset.success_share", "share"},
	{"dataset.examples", "count"},
	{"cluster.wire_tx_bytes", "B"},
	{"cluster.wire_rx_bytes", "B"},
	{"cluster.compress_ratio", "ratio"},
	{"cluster.checkpoint_bytes", "B"},
	{"cluster.conn_write_ms", "ms"},
	{"cluster.conn_read_wait_ms", "ms"},
	{"cluster.epoch_ms_p50", "ms"},
	{"cluster.epoch_ms_p99", "ms"},
	{"cluster.reassignments", "count"},
	{"runtime.alloc_bytes_per_work", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"bench.tracing_overhead_share", "share"},
	{"bench.calibration_ms", "ms"},
}

// fillShared fills the per-layer metrics every workload shares: runtime
// counters per untraced operation, the tracing overhead and the
// calibration time.
func (r *run) fillShared(o *outcome) {
	if o.layers == nil {
		o.layers = map[string]float64{}
	}
	if o.mem.ops > 0 {
		n := float64(o.mem.ops)
		o.layers["runtime.alloc_bytes_per_work"] = share(o.mem.allocBytes, o.mem.work)
		o.layers["runtime.gc_pause_ms"] = o.mem.pauseNs / n / 1e6
		o.layers["runtime.gc_cycles"] = o.mem.gcCycles / n
	}
	if u := median(o.opS); u > 0 {
		o.layers["bench.tracing_overhead_share"] = median(o.tracedOpS)/u - 1
	}
	o.layers["bench.calibration_ms"] = 1e3 * median(r.calibS)
}

// env is the environment recorded with every result.
type env struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        int    `json:"trace"`
	Host         string `json:"host"`
	CPU          string `json:"cpu"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_sha256"`
	Time         string `json:"time"`
}

func environment(r *run) env {
	host, _ := os.Hostname()
	return env{
		Workload:     r.workload,
		Seed:         r.seed,
		Seconds:      int(r.seconds / time.Second),
		Trace:        btoi(r.traced),
		Host:         host,
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceDigest: sourceDigest(),
		Time:         time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the CPU model name, or "unknown" where /proc/cpuinfo is
// not available.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from; a checkout without
// git metadata reads "none", and the source digest identifies the code.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	rev, dirty := "none", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes go.mod and every Go file under internal/ and
// snowbench/ of the working directory, in path order.
func sourceDigest() string {
	var paths []string
	for _, root := range []string{"internal", "snowbench"} {
		filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range append([]string{"go.mod"}, paths...) {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
