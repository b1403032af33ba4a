package main

import (
	"fmt"
	"time"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/cluster"
	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
	"github.com/repro/snowplow/internal/trace"
)

const (
	kernelVersion = "6.8"
	// fuzzBudget is the simulated cost (blocks executed) of every
	// campaign of fuzz-syz, fuzz-snowplow and cluster.
	fuzzBudget = 400_000
	// fuzzCampaigns is how many distinct campaigns (seeds) a run cycles
	// through; quality is their median, so it does not depend on how many
	// operations fit in the window.
	fuzzCampaigns = 6
	seedPrograms  = 20
	// reexecSample is how many corpus programs fuzz-snowplow re-executes
	// per distinct campaign to check their edges against the corpus cover.
	reexecSample = 16
)

// fuzzInputs is the set-up of the campaign workloads: the kernel, its
// control-flow analysis and the campaign seeds.
type fuzzInputs struct {
	k     *kernel.Kernel
	an    *cfa.Analysis
	seeds []uint64
}

func newFuzzInputs(seed uint64, tr *tracer, parent int64) (*fuzzInputs, error) {
	start := time.Now()
	k, err := kernel.Build(kernelVersion)
	if err != nil {
		return nil, err
	}
	an := cfa.New(k)
	tr.record("kernel.Build", parent, start, time.Now())
	return &fuzzInputs{k: k, an: an, seeds: subSeeds(seed, fuzzCampaigns)}, nil
}

// config is campaign i's configuration: its seed and a seed corpus
// generated from it, as cmd/snowplow generates one.
func (in *fuzzInputs) config(i int, mode fuzzer.Mode, vms int) fuzzer.Config {
	s := in.seeds[i%len(in.seeds)]
	g := prog.NewGenerator(in.k.Target)
	r := rng.New(s + 0x5eed)
	cfg := fuzzer.Config{Mode: mode, Kernel: in.k, An: in.an, Seed: s, Budget: fuzzBudget, VMs: vms}
	for j := 0; j < seedPrograms; j++ {
		cfg.SeedCorpus = append(cfg.SeedCorpus, g.Generate(r, 2+r.Intn(3)))
	}
	return cfg
}

// perCampaign collects a value per distinct campaign, over its repeats.
type perCampaign map[int][]float64

// median is the median over distinct campaigns of each one's median over
// its repeats.
func (p perCampaign) median() float64 {
	var ms []float64
	for _, xs := range p {
		ms = append(ms, median(xs))
	}
	return median(ms)
}

// digests checks that repeats of a deterministic campaign reproduce its
// corpus and cover digests.
type digests map[int][2]string

func (d digests) check(o *outcome, i, n int, corp, cover string) {
	got := [2]string{corp, cover}
	want, seen := d[i%n]
	if !seen {
		d[i%n] = got
		return
	}
	if got != want {
		o.failf("campaign %d repeat: digests %s/%s differ from %s/%s", i%n, corp[:16], cover[:16], want[0][:16], want[1][:16])
	}
}

func (d digests) report(o *outcome) {
	for i := 0; i < len(d); i++ {
		o.accounting = append(o.accounting, fmt.Sprintf("campaign %d digests: corpus=%s cover=%s", i, d[i][0], d[i][1]))
	}
}

// addCampaignMetrics adds the metrics every campaign workload reports.
func (o *outcome) addCampaignMetrics(edges, crashes perCampaign) {
	o.add("execs_per_s", median(o.perOp(o.workRate, true)), "execs/s", "median over campaigns")
	o.add("final_edges", o.quality, "edges", fmt.Sprintf("median over %d campaigns at budget %d", fuzzCampaigns, fuzzBudget))
	o.add("crashes_found", crashes.median(), "titles", "unique crash titles, median over campaigns")
	o.add("campaign_s", median(o.opTimes()), "s", timing(o.opTimes()))
}

// fuzzLayers accumulates the traced campaigns' registries and stats.
type fuzzLayers struct {
	vms    int
	n      float64
	wallS  float64
	reg    map[string]obs.Metric
	yield  fuzzer.YieldStats
	execs  float64
	crash  float64
	corpus float64
}

func (l *fuzzLayers) add(reg *obs.Registry, st *fuzzer.Stats, wall time.Duration) {
	if l.reg == nil {
		l.reg = map[string]obs.Metric{}
	}
	mergeSnapshots(l.reg, reg.Snapshot())
	l.n++
	l.wallS += wall.Seconds()
	y := st.Yield
	l.yield.GuidedExecs += y.GuidedExecs
	l.yield.GuidedEdges += y.GuidedEdges
	l.yield.RandArgExecs += y.RandArgExecs
	l.yield.RandArgEdges += y.RandArgEdges
	l.execs += float64(st.Executions)
	l.crash += float64(len(st.Crashes))
	l.corpus += float64(st.CorpusSize)
}

func (l *fuzzLayers) fill(o *outcome) {
	if l.n == 0 {
		return
	}
	o.layers = map[string]float64{}
	ex := l.reg["fuzzer_exec_latency_ns"]
	o.layers["exec.run_us_p50"], _ = histQuantile(ex, 0.50)
	o.layers["exec.run_us_p99"], _ = histQuantile(ex, 0.99)
	o.layers["exec.run_us_p50"] /= 1e3
	o.layers["exec.run_us_p99"] /= 1e3
	o.layers["exec.run_us_mean"] = share(float64(ex.Sum), float64(ex.Count)) / 1e3
	busy := l.wallS * float64(l.vms) * 1e9
	o.layers["exec.busy_share"] = share(float64(ex.Sum), busy)
	ep := l.reg["fuzzer_epoch_duration_ns"]
	o.layers["fuzzer.epochs"] = float64(l.reg["fuzzer_epochs_total"].Value) / l.n
	p50, _ := histQuantile(ep, 0.50)
	p99, _ := histQuantile(ep, 0.99)
	o.layers["fuzzer.epoch_ms_p50"] = p50 / 1e6
	o.layers["fuzzer.epoch_ms_p99"] = p99 / 1e6
	o.layers["fuzzer.barrier_wait_share"] = share(float64(l.reg["fuzzer_barrier_wait_ns"].Sum), busy)
	o.layers["fuzzer.guided_exec_share"] = share(float64(l.yield.GuidedExecs), l.execs)
	o.layers["fuzzer.guided_edges_per_kexec"] = 1e3 * share(float64(l.yield.GuidedEdges), float64(l.yield.GuidedExecs))
	o.layers["fuzzer.randarg_edges_per_kexec"] = 1e3 * share(float64(l.yield.RandArgEdges), float64(l.yield.RandArgExecs))
	o.layers["fuzzer.crashes_found"] = l.crash / l.n
	o.layers["corpus.size"] = l.corpus / l.n
}

// runFuzzSyz is a Syzkaller-mode campaign on two simulated VMs with no
// model: exec, mutation, trace, corpus and the epoch reconciler do the
// work, and serve, nn and pmm do none.
func runFuzzSyz(r *run) (*outcome, error) {
	o := &outcome{}
	var in *fuzzInputs
	if err := r.setups(o, func(parent int64) (err error) {
		in, err = newFuzzInputs(r.seed, r.tr, parent)
		return err
	}); err != nil {
		return nil, err
	}
	const vms = 2
	edges, crashes := perCampaign{}, perCampaign{}
	dg := digests{}
	layers := &fuzzLayers{vms: vms}
	r.loop(o, fuzzCampaigns, func(i int, traced bool) (time.Duration, float64, error) {
		cfg := in.config(i, fuzzer.ModeSyzkaller, vms)
		var reg *obs.Registry
		if traced {
			reg = obs.NewRegistry()
			cfg.Metrics = reg
		}
		f := fuzzer.New(cfg)
		start := time.Now()
		st, err := f.Run()
		wall := time.Since(start)
		if err != nil {
			return 0, 0, err
		}
		if traced {
			r.tr.record("fuzzer.Run", 0, start, start.Add(wall))
			layers.add(reg, st, wall)
		}
		edges[i%fuzzCampaigns] = append(edges[i%fuzzCampaigns], float64(st.FinalEdges))
		crashes[i%fuzzCampaigns] = append(crashes[i%fuzzCampaigns], float64(len(st.Crashes)))
		if st.FinalEdges != f.Corpus().TotalEdges() {
			o.failf("campaign %d: reported %d edges, corpus covers %d", i, st.FinalEdges, f.Corpus().TotalEdges())
		}
		dg.check(o, i, fuzzCampaigns, cluster.CorpusDigest(f.Corpus()), cluster.CoverDigest(f.Corpus()))
		return wall, float64(st.Executions), nil
	})
	dg.report(o)
	o.quality = edges.median()
	o.addCampaignMetrics(edges, crashes)
	layers.fill(o)
	o.unmeasured = append(o.unmeasured, "serve.*, qgraph.*, nn.*, pmm.*, dataset.*, cluster.*: fuzz-syz does not use these layers")
	return o, nil
}

// snowplowSetup is fuzz-snowplow's set-up: the campaign inputs plus a
// model harvested and trained from the seed.
type snowplowSetup struct {
	*fuzzInputs
	model *pmm.Model
}

// serveCacheSize is cmd/snowplow's default graph-cache capacity.
const serveCacheSize = 1024

// runFuzzSnowplow is a Snowplow-mode campaign on one simulated VM with
// asynchronous inference from a dedicated one-worker server, so the fuzz
// loop and the inference replica each have a core.
func runFuzzSnowplow(r *run) (*outcome, error) {
	o := &outcome{}
	var su snowplowSetup
	if err := r.setups(o, func(parent int64) error {
		in, err := newFuzzInputs(r.seed, r.tr, parent)
		if err != nil {
			return err
		}
		rt, err := retrain(in.k, in.an, harvestBases(in.k, trainSeed, trainHarvest.bases), trainSeed, trainHarvest, r.tr, parent, nil)
		if err != nil {
			return err
		}
		su = snowplowSetup{fuzzInputs: in, model: rt.model}
		return nil
	}); err != nil {
		return nil, err
	}
	edges, crashes := perCampaign{}, perCampaign{}
	var predRate, failShare []float64
	var submitted, refused, failed int64
	checked := map[int]bool{}
	layers := &fuzzLayers{vms: 1}
	var sv serveLayers
	r.loop(o, fuzzCampaigns, func(i int, traced bool) (time.Duration, float64, error) {
		cfg := su.config(i, fuzzer.ModeSnowplow, 1)
		var reg *obs.Registry
		if traced {
			reg = obs.NewRegistry()
			cfg.Metrics = reg
		}
		srv := serve.NewServerOpts(su.model, qgraph.NewBuilder(su.k, su.an).WithCache(serveCacheSize), serve.Options{
			Workers:       1,
			BatchSize:     1,
			Fused:         true,
			KernelProfile: true,
			Metrics:       reg,
		})
		var ti *tracedInferrer
		cfg.Server = srv
		if traced {
			ti = &tracedInferrer{srv: srv, tr: r.tr, parent: r.tr.open()}
			cfg.Server = ti
		}
		pool0, prof0 := su.model.PoolStats(), su.model.InferProfile()
		f := fuzzer.New(cfg)
		start := time.Now()
		st, err := f.Run()
		wall := time.Since(start)
		srv.Close()
		if ti != nil {
			ti.wait()
			r.tr.close(ti.parent, "fuzzer.Run", 0, start)
		}
		if err != nil {
			return 0, 0, err
		}
		ss := srv.Stats()
		rejected := ss.Rejected + ss.QuotaRejected + ss.Shed
		submitted += ss.Queries + rejected
		refused += rejected
		failed += ss.Failed
		if traced {
			layers.add(reg, st, wall)
			pool1, prof1 := su.model.PoolStats(), su.model.InferProfile()
			sv.add(ti, ss, wall, pool1.Borrows-pool0.Borrows, pool1.Reuses-pool0.Reuses, prof1.KernelNs()-prof0.KernelNs())
		} else {
			predRate = append(predRate, float64(st.PMMPredictions)/wall.Seconds())
			failShare = append(failShare, share(float64(rejected+ss.Failed), float64(ss.Queries+rejected)))
		}
		edges[i%fuzzCampaigns] = append(edges[i%fuzzCampaigns], float64(st.FinalEdges))
		crashes[i%fuzzCampaigns] = append(crashes[i%fuzzCampaigns], float64(len(st.Crashes)))
		if st.PMMInvalidSlots != 0 {
			o.failf("campaign %d: %d invalid predicted slots", i, st.PMMInvalidSlots)
		}
		if !checked[i%fuzzCampaigns] {
			checked[i%fuzzCampaigns] = true
			if err := checkReexec(su.k, f, i); err != nil {
				o.failf("%v", err)
			}
		}
		return wall, float64(st.Executions), nil
	})
	o.quality = edges.median()
	o.accounting = append(o.accounting, fmt.Sprintf("inference queries: %d submitted, %d refused at admission, %d failed terminally (%.1f%%)",
		submitted, refused, failed, 100*share(float64(refused+failed), float64(submitted))))
	o.addCampaignMetrics(edges, crashes)
	o.add("pmm_predictions_per_s", median(o.perOp(predRate, true)), "predictions/s", "median over campaigns")
	o.add("pmm_query_fail_share", median(failShare), "share", "(refused+failed)/submitted, median over campaigns")
	layers.fill(o)
	sv.fill(o, layers.reg)
	o.unmeasured = append(o.unmeasured,
		"fuzzer.epoch_ms_*, fuzzer.barrier_wait_share: fuzz-snowplow runs the sequential engine (VMs=1), which has no epochs",
		"pmm.*, dataset.*, qgraph.compile_s: training runs only in set-up here; the train workload measures it",
		"cluster.*: not used")
	return o, nil
}

// checkReexec re-executes a sample of the campaign's corpus on a fresh
// executor and checks that every edge is inside the corpus's total cover.
func checkReexec(k *kernel.Kernel, f *fuzzer.Fuzzer, i int) error {
	entries := f.Corpus().Entries()
	total := f.Corpus().TotalCover()
	step := len(entries)/reexecSample + 1
	exe := exec.New(k)
	for j := 0; j < len(entries); j += step {
		res, err := exe.Run(entries[j].Prog)
		if err != nil {
			return fmt.Errorf("campaign %d: re-executing corpus entry %d: %v", i, j, err)
		}
		if n := total.NewEdges(trace.EdgesOf(res)); n > 0 {
			return fmt.Errorf("campaign %d: corpus entry %d re-executed to %d edges outside the corpus cover", i, j, n)
		}
	}
	return nil
}

// serveLayers accumulates the traced campaigns' serving counters.
type serveLayers struct {
	n, wallS                   float64
	submitted, refused, failed float64
	retries, batches, served   float64
	predictions                float64
	hits, misses               float64
	borrows, reuses, kernelNs  float64
	latencyUs                  []float64
}

func (s *serveLayers) add(ti *tracedInferrer, ss serve.Stats, wall time.Duration, borrows, reuses, kernelNs int64) {
	s.n++
	s.wallS += wall.Seconds()
	s.submitted += float64(ti.submitted.Load())
	s.refused += float64(ti.refused.Load())
	s.failed += float64(ss.Failed)
	s.retries += float64(ss.Retries)
	s.batches += float64(ss.Batches)
	s.served += float64(ss.Served)
	s.predictions += float64(ss.Succeeded)
	s.hits += float64(ss.CacheHits)
	s.misses += float64(ss.CacheMisses)
	s.borrows += float64(borrows)
	s.reuses += float64(reuses)
	s.kernelNs += float64(kernelNs)
	s.latencyUs = append(s.latencyUs, ti.latencyUs...)
}

// fill sets the serve, qgraph and nn metrics; reg is the traced campaigns'
// merged registry, which holds the server's queue-wait histogram.
func (s *serveLayers) fill(o *outcome, reg map[string]obs.Metric) {
	if s.n == 0 {
		return
	}
	o.layers["serve.submitted"] = s.submitted / s.n
	o.layers["serve.refused"] = s.refused / s.n
	o.layers["serve.failed"] = s.failed / s.n
	o.layers["serve.retries"] = s.retries / s.n
	o.layers["serve.fail_share"] = share(s.refused+s.failed, s.submitted)
	o.layers["serve.predictions_per_s"] = s.predictions / s.wallS
	qw := reg["serve_queue_wait_ns"]
	p50, _ := histQuantile(qw, 0.50)
	p99, _ := histQuantile(qw, 0.99)
	o.layers["serve.queue_wait_us_p50"] = p50 / 1e3
	o.layers["serve.queue_wait_us_p99"] = p99 / 1e3
	o.layers["serve.latency_us_p50"] = sampleQuantile(s.latencyUs, 0.50)
	o.layers["serve.latency_us_p99"] = sampleQuantile(s.latencyUs, 0.99)
	o.layers["serve.batch_size_mean"] = share(s.served, s.batches)
	o.layers["serve.batches"] = s.batches / s.n
	o.layers["qgraph.cache_hit_share"] = share(s.hits, s.hits+s.misses)
	o.layers["nn.infer_kernel_us_per_batch"] = share(s.kernelNs, s.batches) / 1e3
	o.layers["nn.pool_reuse_share"] = share(s.reuses, s.borrows)
}
