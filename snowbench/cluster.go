package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/repro/snowplow/internal/cluster"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/obs"
)

const (
	clusterWorkers = 2
	// clusterEpochs sets SyncEvery to the per-VM budget over this many
	// epochs: four times fuzzer's default of 32, so barrier, merge and
	// wire costs weigh more than in fuzz-syz.
	clusterEpochs = 128
	// clusterCompress is the flate level offered to v2 workers, as the
	// wire experiment uses.
	clusterCompress = 6
	// clusterCheckpointEvery takes an in-memory checkpoint every this many
	// merged epochs.
	clusterCheckpointEvery = 32
)

// runCluster runs fuzz-syz's campaigns on a loopback cluster of two
// workers with short epochs, compressed v2 wire and periodic in-memory
// checkpoints. Its fuzzing matches fuzz-syz, so the difference is the
// wire, the framing, the coordinator merge and the barrier wait.
func runCluster(r *run) (*outcome, error) {
	o := &outcome{}
	var (
		in    *fuzzInputs
		specs []cluster.CampaignSpec
	)
	if err := r.setups(o, func(parent int64) (err error) {
		in, err = newFuzzInputs(r.seed, r.tr, parent)
		if err != nil {
			return err
		}
		specs = specs[:0]
		for i := 0; i < fuzzCampaigns; i++ {
			specs = append(specs, cluster.SpecFromConfig(clusterConfig(in, i), nil))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	edges, crashes := perCampaign{}, perCampaign{}
	got := map[int]*cluster.Result{}
	var epochMs, bytesPerEpoch []float64
	var reassigned float64
	var cl clusterLayers
	r.loop(o, fuzzCampaigns, func(i int, traced bool) (time.Duration, float64, error) {
		var (
			parent int64
			mu     sync.Mutex
			conns  []*tracedConn
			last   []byte
		)
		// The coordinator's registry is a few counters per epoch; every
		// campaign carries one so that worker losses are always counted.
		reg := obs.NewRegistry()
		cfg := cluster.Config{
			Spec:            specs[i%fuzzCampaigns],
			Compress:        clusterCompress,
			CheckpointEvery: clusterCheckpointEvery,
			OnCheckpoint:    func(_ int64, data []byte) { last = data },
			Metrics:         reg,
		}
		var wopts cluster.WorkerOptions
		if traced {
			parent = r.tr.open()
			wopts.Dial = func(addr string) (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				tc := &tracedConn{Conn: c, tr: r.tr, parent: parent}
				mu.Lock()
				conns = append(conns, tc)
				mu.Unlock()
				return tc, nil
			}
		}
		start := time.Now()
		res, err := cluster.RunLocal(cfg, clusterWorkers, wopts)
		wall := time.Since(start)
		if traced {
			r.tr.close(parent, "cluster.RunLocal", 0, start)
		}
		if err != nil {
			return 0, 0, err
		}
		if last == nil {
			o.failf("campaign %d: no checkpoint taken", i)
		} else if _, err := cluster.DecodeCheckpoint(last); err != nil {
			o.failf("campaign %d: last checkpoint does not decode: %v", i, err)
		}
		st := res.Stats
		epochs := float64(res.Wire.Epochs)
		reassigned += float64(reg.Values()["cluster_reassignments_total"])
		if traced {
			cl.add(res, wall, conns, len(last), reg)
		} else {
			epochMs = append(epochMs, 1e3*wall.Seconds()/epochs)
			bytesPerEpoch = append(bytesPerEpoch, float64(res.Wire.TxWireBytes+res.Wire.RxWireBytes)/epochs)
		}
		edges[i%fuzzCampaigns] = append(edges[i%fuzzCampaigns], float64(st.FinalEdges))
		crashes[i%fuzzCampaigns] = append(crashes[i%fuzzCampaigns], float64(len(st.Crashes)))
		if prev, ok := got[i%fuzzCampaigns]; !ok {
			got[i%fuzzCampaigns] = res
		} else if prev.CorpusDigest != res.CorpusDigest || prev.CoverDigest != res.CoverDigest || prev.JournalDigest != res.JournalDigest {
			o.failf("campaign %d repeat: cluster digests differ", i%fuzzCampaigns)
		}
		return wall, float64(st.Executions), nil
	})
	// Every distinct cluster campaign must reproduce the single-host
	// campaign of the same spec bit for bit. The reference runs after the
	// measuring window, untimed.
	for i := 0; i < fuzzCampaigns; i++ {
		res, ok := got[i]
		if !ok {
			continue
		}
		jn := obs.NewJournal(0)
		cfg := clusterConfig(in, i)
		cfg.Journal = jn
		f := fuzzer.New(cfg)
		if _, err := f.Run(); err != nil {
			o.failf("campaign %d: single-host reference: %v", i, err)
			continue
		}
		want := [3]string{cluster.CorpusDigest(f.Corpus()), cluster.CoverDigest(f.Corpus()), cluster.JournalDigest(jn.Events())}
		have := [3]string{res.CorpusDigest, res.CoverDigest, res.JournalDigest}
		if want != have {
			o.failf("campaign %d: cluster digests %.16s/%.16s/%.16s differ from single host %.16s/%.16s/%.16s",
				i, have[0], have[1], have[2], want[0], want[1], want[2])
		}
		o.accounting = append(o.accounting, fmt.Sprintf("campaign %d digests: corpus=%s cover=%s journal=%s (single host: same=%v)",
			i, have[0], have[1], have[2], want == have))
	}
	o.accounting = append(o.accounting, fmt.Sprintf("VM shards reassigned after worker loss: %.0f", reassigned))
	o.quality = edges.median()
	o.addCampaignMetrics(edges, crashes)
	o.add("epoch_ms", median(o.perOp(epochMs, false)), "ms", "campaign wall / merged epochs, median over campaigns")
	o.add("wire_bytes_per_epoch", median(bytesPerEpoch), "B", "coordinator wire bytes both ways / merged epochs")
	cl.fill(o)
	o.unmeasured = append(o.unmeasured,
		"exec.*, fuzzer.*: cluster workers build their fuzzer from the spec, and WorkerOptions has no metrics registry to attach",
		"serve.*, qgraph.*, nn.*, pmm.*, dataset.*: a Syzkaller-mode cluster does not use them")
	return o, nil
}

// clusterConfig is fuzz-syz's campaign i with short epochs and a journal
// (the cluster's journal digest is compared with the single host's).
func clusterConfig(in *fuzzInputs, i int) fuzzer.Config {
	cfg := in.config(i, fuzzer.ModeSyzkaller, clusterWorkers)
	cfg.SyncEvery = fuzzBudget / clusterWorkers / clusterEpochs
	cfg.Journal = obs.NewJournal(0)
	return cfg
}

// clusterLayers accumulates the traced cluster campaigns' wire and
// connection numbers.
type clusterLayers struct {
	n, wallS                float64
	tx, rx, raw, checkpoint float64
	writeMs, readMs         float64
	reassignments           float64
	epochMs                 []float64
}

func (c *clusterLayers) add(res *cluster.Result, wall time.Duration, conns []*tracedConn, checkpoint int, reg *obs.Registry) {
	c.n++
	c.wallS += wall.Seconds()
	w := res.Wire
	c.tx += float64(w.TxWireBytes)
	c.rx += float64(w.RxWireBytes)
	c.raw += float64(w.TxRawBytes + w.RxRawBytes)
	c.checkpoint += float64(checkpoint)
	c.reassignments += float64(reg.Values()["cluster_reassignments_total"])
	for _, tc := range conns {
		c.writeMs += float64(tc.writeNs.Load()) / 1e6
		c.readMs += float64(tc.readNs.Load()) / 1e6
		c.epochMs = append(c.epochMs, tc.epochMs...)
	}
}

func (c *clusterLayers) fill(o *outcome) {
	if c.n == 0 {
		return
	}
	o.layers = map[string]float64{}
	o.layers["cluster.wire_tx_bytes"] = c.tx / c.n
	o.layers["cluster.wire_rx_bytes"] = c.rx / c.n
	o.layers["cluster.compress_ratio"] = share(c.raw, c.tx+c.rx)
	o.layers["cluster.checkpoint_bytes"] = c.checkpoint / c.n
	o.layers["cluster.conn_write_ms"] = c.writeMs / c.n
	o.layers["cluster.conn_read_wait_ms"] = c.readMs / c.n
	o.layers["cluster.epoch_ms_p50"] = sampleQuantile(c.epochMs, 0.50)
	o.layers["cluster.epoch_ms_p99"] = sampleQuantile(c.epochMs, 0.99)
	o.layers["cluster.reassignments"] = c.reassignments / c.n
}
