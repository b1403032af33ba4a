package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"time"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/dataset"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
)

// harvest sizes one run of the retrain pipeline.
type harvest struct {
	bases, mutationsPerBase, epochs int
}

// trainHarvest is the train workload's harvest, which also trains
// fuzz-snowplow's served model during set-up: the online retrain's
// defaults (24 mutations per base, batch 8) on a corpus-sized set of bases.
var trainHarvest = harvest{bases: 96, mutationsPerBase: 24, epochs: 2}

// trainSeed fixes the harvest and training seed of the train workload and
// of fuzz-snowplow's model. At the ~100 examples a run can afford,
// validation F1 swings between about 0.03 and 0.21 from one seed to the
// next, and a fuzz-snowplow campaign served by a model trained from its
// own seed loses up to a tenth of its edges on an unlucky draw (README.md).
// A fixed harvest keeps val_f1 one bit-stable number that any change to
// the training arithmetic moves, and leaves --seed to vary the campaigns.
const trainSeed = 1

const (
	trainBatch   = 8
	trainWorkers = 2
)

// harvestBases generates the n programs a retrain harvests around.
func harvestBases(k *kernel.Kernel, seed uint64, n int) []*prog.Prog {
	g := prog.NewGenerator(k.Target)
	r := rng.New(seed + 0xda7a)
	bases := make([]*prog.Prog, n)
	for i := range bases {
		bases[i] = g.Generate(r, 3+r.Intn(4))
	}
	return bases
}

// retrained is one pass of the retrain pipeline.
type retrained struct {
	model    *pmm.Model
	builder  *qgraph.Builder
	stats    dataset.CollectStats
	examples int // harvested examples
	trained  int // example passes of training (examples × epochs)
	val      *dataset.Dataset
	valC     *pmm.Compiled
	f1       float64

	collect, compile, train, eval time.Duration
}

// retrain runs the online-retrain pipeline over bases: Collect, Split,
// CompileDataset, TrainCompiled and EvaluateCompiled on the validation
// split. Each stage is a span under parent.
func retrain(k *kernel.Kernel, an *cfa.Analysis, bases []*prog.Prog, seed uint64, h harvest, tr *tracer, parent int64, reg *obs.Registry) (*retrained, error) {
	rt := &retrained{builder: qgraph.NewBuilder(k, an)}
	stage := func(name string, d *time.Duration, fn func()) {
		start := time.Now()
		fn()
		*d = time.Since(start)
		tr.record(name, parent, start, start.Add(*d))
	}
	c := dataset.NewCollector(k, an)
	c.MutationsPerBase = h.mutationsPerBase
	c.Workers = trainWorkers
	c.Metrics = reg
	var ds *dataset.Dataset
	stage("dataset.Collect", &rt.collect, func() { ds, rt.stats = c.Collect(rng.New(seed+0xc011), bases) })
	rt.examples = ds.Len()
	train, val, _ := ds.Split(0.75, 0.25)
	if train.Len() == 0 || val.Len() == 0 {
		return nil, fmt.Errorf("harvest too small: %d examples", ds.Len())
	}
	rt.val = val
	tcfg := pmm.DefaultTrainConfig()
	tcfg.Epochs = h.epochs
	tcfg.Batch = trainBatch
	tcfg.Workers = trainWorkers
	tcfg.Seed = seed
	tcfg.Metrics = reg
	var trainC *pmm.Compiled
	stage("pmm.CompileDataset", &rt.compile, func() {
		trainC = pmm.CompileDataset(rt.builder, train, tcfg.PosWeight)
		rt.valC = pmm.CompileDataset(rt.builder, val, 1)
	})
	rt.trained = trainC.Len() * h.epochs
	stage("pmm.TrainCompiled", &rt.train, func() {
		rt.model, _ = pmm.TrainCompiled(rt.builder, pmm.DefaultConfig(), tcfg, trainC, rt.valC)
	})
	stage("pmm.EvaluateCompiled", &rt.eval, func() { rt.f1 = pmm.EvaluateCompiled(rt.model, rt.valC).F1 })
	return rt, nil
}

// checkpointSHA saves the model and returns the checkpoint and its SHA-256.
func checkpointSHA(m *pmm.Model) ([]byte, string, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:]), nil
}

// checkRoundTrip loads the checkpoint and checks that the loaded model
// predicts exactly what the trained one does on the validation split.
func checkRoundTrip(rt *retrained, ckpt []byte) error {
	loaded, err := pmm.Load(bytes.NewReader(ckpt))
	if err != nil {
		return fmt.Errorf("loading checkpoint: %w", err)
	}
	rt.model.Freeze()
	loaded.Freeze()
	for i, ex := range rt.val.Examples {
		g := rt.builder.Build(ex.Prog, ex.Traces, ex.Targets)
		s1, p1 := rt.model.Predict(g)
		s2, p2 := loaded.Predict(g)
		if !slices.Equal(s1, s2) || !slices.Equal(p1, p2) {
			return fmt.Errorf("validation example %d: loaded checkpoint predicts differently", i)
		}
	}
	return nil
}

// runTrain repeats the online-retrain pipeline on a fixed harvest (see
// trainSeed): the nn autodiff forward and backward passes and Adam
// dominate.
func runTrain(r *run) (*outcome, error) {
	o := &outcome{}
	var (
		k     *kernel.Kernel
		an    *cfa.Analysis
		bases []*prog.Prog
	)
	if err := r.setups(o, func(parent int64) error {
		in, err := newFuzzInputs(r.seed, r.tr, parent)
		if err != nil {
			return err
		}
		k, an = in.k, in.an
		bases = harvestBases(k, trainSeed, trainHarvest.bases)
		return nil
	}); err != nil {
		return nil, err
	}
	var (
		sha      string
		f1       float64
		exRate   []float64
		trained  trainLayers
		repeated int
	)
	r.loop(o, 1, func(i int, traced bool) (time.Duration, float64, error) {
		var reg *obs.Registry
		var tr *tracer
		var parent int64
		if traced {
			reg, tr = obs.NewRegistry(), r.tr
			parent = tr.open()
		}
		start := time.Now()
		rt, err := retrain(k, an, bases, trainSeed, trainHarvest, tr, parent, reg)
		wall := time.Since(start)
		tr.close(parent, "retrain", 0, start)
		if err != nil {
			return 0, 0, err
		}
		ckpt, sum, err := checkpointSHA(rt.model)
		if err != nil {
			return 0, 0, err
		}
		if sha == "" {
			sha, f1 = sum, rt.f1
			if err := checkRoundTrip(rt, ckpt); err != nil {
				o.failf("%v", err)
			}
		} else {
			repeated++
			if sum != sha || rt.f1 != f1 {
				o.failf("retrain %d: checkpoint %s (F1 %v) differs from the first, %s (F1 %v)", i, sum, rt.f1, sha, f1)
			}
		}
		if traced {
			trained.add(reg, rt)
		} else {
			exRate = append(exRate, float64(rt.trained)/rt.train.Seconds())
		}
		return wall, float64(rt.trained), nil
	})
	o.quality = f1
	// The training stage alone, not the whole retrain, defines the rate.
	o.workRate = exRate
	o.accounting = append(o.accounting, fmt.Sprintf("checkpoint sha256 %s, identical over %d repeat(s)", sha, repeated))
	o.add("retrain_s", median(o.opTimes()), "s", timing(o.opTimes()))
	o.add("train_examples_per_s", median(o.perOp(exRate, true)), "examples/s", "training stage, median over retrains")
	o.add("val_f1", f1, "F1", "bit-stable per seed")
	trained.fill(o)
	o.unmeasured = append(o.unmeasured,
		"exec.*, fuzzer.*, corpus.*, serve.*, nn.infer_*, nn.pool_*, cluster.*: train does not run campaigns or serve",
		"pmm.train_epoch_s_mean: the epoch histogram's exact sum/count, since its power-of-4 buckets cannot give a median")
	return o, nil
}

// trainLayers accumulates the traced retrains' registries and stage times.
type trainLayers struct {
	n                               float64
	reg                             map[string]obs.Metric
	collect, compile, train, eval   float64
	mutations, successful, examples float64
}

func (t *trainLayers) add(reg *obs.Registry, rt *retrained) {
	if t.reg == nil {
		t.reg = map[string]obs.Metric{}
	}
	mergeSnapshots(t.reg, reg.Snapshot())
	t.n++
	t.collect += rt.collect.Seconds()
	t.compile += rt.compile.Seconds()
	t.train += rt.train.Seconds()
	t.eval += rt.eval.Seconds()
	t.mutations += float64(rt.stats.Mutations)
	t.successful += float64(rt.stats.Successful)
	t.examples += float64(rt.examples)
}

func (t *trainLayers) fill(o *outcome) {
	if t.n == 0 {
		return
	}
	o.layers = map[string]float64{}
	o.layers["dataset.collect_s"] = t.collect / t.n
	o.layers["dataset.mutations"] = t.mutations / t.n
	o.layers["dataset.success_share"] = share(t.successful, t.mutations)
	o.layers["dataset.examples"] = t.examples / t.n
	o.layers["qgraph.compile_s"] = t.compile / t.n
	o.layers["pmm.train_s"] = t.train / t.n
	ep := t.reg["train_epoch_latency_ns"]
	o.layers["pmm.train_epoch_s_mean"] = share(float64(ep.Sum), float64(ep.Count)) / 1e9
	o.layers["pmm.grad_reduce_wait_share"] = share(float64(t.reg["train_grad_reduce_wait_ns"].Sum)/1e9, t.train)
	o.layers["pmm.minibatches"] = float64(t.reg["train_minibatches_total"].Value) / t.n
	o.layers["pmm.eval_s"] = t.eval / t.n
}
