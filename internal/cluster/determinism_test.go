// Cluster-grade determinism suite: a W-worker cluster must be
// bit-identical, per seed, to the single-host campaign with the same VM
// count — corpus, coverage, journal and stats — for W = 1, 2 and 4, and a
// checkpointed campaign must resume (even resharded onto a different worker
// count) with identical final output.

package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/qgraph"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
)

var (
	testKernel = kernel.MustBuild("6.8")
	testAn     = cfa.New(testKernel)
)

func seedProgs(n int, seed uint64) []*prog.Prog {
	g := prog.NewGenerator(testKernel.Target)
	r := rng.New(seed)
	out := make([]*prog.Prog, n)
	for i := range out {
		out[i] = g.Generate(r, 2+r.Intn(3))
	}
	return out
}

// testModelBytes serializes a fresh deterministic PMM model; workers load
// it into their own inference servers.
func testModelBytes(t *testing.T) []byte {
	t.Helper()
	m := pmm.NewModel(rng.New(77), pmm.DefaultConfig(), pmm.BuildVocab(testKernel))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// baseConfig is the single-host campaign the cluster runs are compared to.
func baseConfig(seed uint64, budget int64, vms int) fuzzer.Config {
	return fuzzer.Config{
		Mode:       fuzzer.ModeSyzkaller,
		Kernel:     testKernel,
		An:         testAn,
		Seed:       seed,
		Budget:     budget,
		VMs:        vms,
		SeedCorpus: seedProgs(10, seed+100),
	}
}

// hostResult mirrors cluster.Result for a single-host campaign.
func runSingleHost(t *testing.T, cfg fuzzer.Config) *Result {
	t.Helper()
	jn := obs.NewJournal(0)
	cfg.Journal = jn
	f := fuzzer.New(cfg)
	stats, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return &Result{
		Stats:         stats,
		CorpusDigest:  CorpusDigest(f.Corpus()),
		CoverDigest:   CoverDigest(f.Corpus()),
		JournalDigest: JournalDigest(jn.Events()),
		Events:        jn.Events(),
	}
}

// zeroWallClock clears the wall-clock stat fields excluded from the
// determinism guarantee, so full-struct comparisons work.
func zeroWallClock(s *fuzzer.Stats) *fuzzer.Stats {
	for i := range s.VMs {
		s.VMs[i].QueueWaitNs = 0
	}
	return s
}

func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.CorpusDigest != got.CorpusDigest {
		t.Errorf("%s: corpus digest diverged", label)
	}
	if want.CoverDigest != got.CoverDigest {
		t.Errorf("%s: coverage digest diverged", label)
	}
	if want.JournalDigest != got.JournalDigest {
		t.Errorf("%s: journal digest diverged (%d vs %d events)", label, len(want.Events), len(got.Events))
	}
	if !reflect.DeepEqual(zeroWallClock(want.Stats), zeroWallClock(got.Stats)) {
		t.Errorf("%s: stats diverged:\nwant: edges=%d execs=%d corpus=%d queries=%d preds=%d crashes=%d series=%d\ngot:  edges=%d execs=%d corpus=%d queries=%d preds=%d crashes=%d series=%d",
			label,
			want.Stats.FinalEdges, want.Stats.Executions, want.Stats.CorpusSize, want.Stats.PMMQueries, want.Stats.PMMPredictions, len(want.Stats.Crashes), len(want.Stats.Series),
			got.Stats.FinalEdges, got.Stats.Executions, got.Stats.CorpusSize, got.Stats.PMMQueries, got.Stats.PMMPredictions, len(got.Stats.Crashes), len(got.Stats.Series))
	}
	if t.Failed() {
		t.Fatalf("%s: cluster output is not bit-identical to the single host", label)
	}
}

// TestClusterMatchesSingleHostSyzkaller is the core guarantee: for the same
// seed, a campaign split across 1, 2 or 4 workers produces byte-identical
// corpus, coverage and journal digests — and identical stats — to the
// single-host 4-VM campaign.
func TestClusterMatchesSingleHostSyzkaller(t *testing.T) {
	cfg := baseConfig(41, 200_000, 4)
	want := runSingleHost(t, cfg)
	spec := SpecFromConfig(withJournalFlag(cfg), nil)
	for _, workers := range []int{1, 2, 4} {
		got, err := RunLocal(Config{Spec: spec}, workers, WorkerOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireSameResult(t, labelWorkers(workers), want, got)
	}
}

// TestClusterMatchesSingleHostSnowplow extends the guarantee to the learned
// mutator: every worker runs its own inference server from the shipped
// model bytes, and the query/prediction schedule still matches the
// single-host campaign exactly.
func TestClusterMatchesSingleHostSnowplow(t *testing.T) {
	model := testModelBytes(t)
	m, err := pmm.Load(bytes.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	// Mirror Materialize's generous serving limits so neither side can
	// degrade under load (e.g. the race detector's 10-20x slowdown).
	srv := serve.NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn), serve.Options{
		Workers:   2,
		QueueSize: 1024,
		Deadline:  30 * time.Second,
	})
	defer srv.Close()
	cfg := baseConfig(42, 200_000, 4)
	cfg.Mode = fuzzer.ModeSnowplow
	cfg.Server = srv
	want := runSingleHost(t, cfg)
	if want.Stats.PMMQueries == 0 {
		t.Fatal("single-host snowplow campaign issued no PMM queries")
	}
	spec := SpecFromConfig(withJournalFlag(cfg), model)
	for _, workers := range []int{1, 2} {
		got, err := RunLocal(Config{Spec: spec}, workers, WorkerOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireSameResult(t, labelWorkers(workers), want, got)
	}
}

// TestClusterCheckpointResumeReshard kills a 2-worker campaign at a
// checkpoint barrier and resumes it on a 4-worker cluster: the resumed
// campaign must finish with output identical to the uninterrupted run.
func TestClusterCheckpointResumeReshard(t *testing.T) {
	cfg := baseConfig(43, 200_000, 4)
	spec := SpecFromConfig(withJournalFlag(cfg), nil)

	var checkpoints [][]byte
	full, err := RunLocal(Config{
		Spec:            spec,
		CheckpointEvery: 8,
		OnCheckpoint:    func(epoch int64, data []byte) { checkpoints = append(checkpoints, data) },
	}, 2, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoints) < 2 {
		t.Fatalf("campaign produced %d checkpoints, want at least 2", len(checkpoints))
	}

	// Resume from a mid-campaign checkpoint — the state a crash at that
	// barrier would leave behind — on a differently sized fleet.
	mid := checkpoints[len(checkpoints)/2]
	for _, workers := range []int{2, 4} {
		got, err := ResumeLocal(Config{Spec: spec}, mid, workers, WorkerOptions{})
		if err != nil {
			t.Fatalf("resume workers=%d: %v", workers, err)
		}
		requireSameResult(t, "resume-"+labelWorkers(workers), full, got)
	}
}

// TestClusterCheckpointEveryBarrier pins the checkpoint invariant at every
// single barrier: resuming from ANY checkpoint reproduces the final
// digests. This is the strongest form of the crash-consistency claim.
func TestClusterCheckpointEveryBarrier(t *testing.T) {
	cfg := baseConfig(44, 60_000, 2)
	spec := SpecFromConfig(withJournalFlag(cfg), nil)
	var checkpoints [][]byte
	full, err := RunLocal(Config{
		Spec:            spec,
		CheckpointEvery: 1,
		OnCheckpoint:    func(epoch int64, data []byte) { checkpoints = append(checkpoints, data) },
	}, 2, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoints) < 4 {
		t.Fatalf("campaign produced only %d checkpoints", len(checkpoints))
	}
	step := len(checkpoints)/4 + 1
	for i := 0; i < len(checkpoints); i += step {
		got, err := ResumeLocal(Config{Spec: spec}, checkpoints[i], 2, WorkerOptions{})
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", i, err)
		}
		requireSameResult(t, "checkpoint-"+labelWorkers(i), full, got)
	}
}

func withJournalFlag(cfg fuzzer.Config) fuzzer.Config {
	cfg.Journal = obs.NewJournal(1) // sentinel: SpecFromConfig only checks non-nil
	return cfg
}

func labelWorkers(w int) string {
	return "workers=" + string(rune('0'+w))
}

// statsSummary condenses the determinism-guaranteed Stats fields into one
// line: campaign totals, the yield breakdown, per-VM counters (wall-clock
// QueueWaitNs excluded), online-learning counters, and digests of the
// coverage series and crash list.
func statsSummary(s *fuzzer.Stats) string {
	h := sha256.New()
	for _, p := range s.Series {
		fmt.Fprintf(h, "%d:%d;", p.Cost, p.Edges)
	}
	series := hex.EncodeToString(h.Sum(nil))[:16]
	h.Reset()
	for _, cr := range s.Crashes {
		fmt.Fprintf(h, "%q|%q|%q|%q|%v|%q|%d;", cr.Spec.Title, cr.Spec.Category, cr.Spec.Detector,
			cr.Spec.KnownSince, cr.Spec.Flaky, cr.ProgText, cr.Cost)
	}
	crashes := hex.EncodeToString(h.Sum(nil))[:16]
	out := fmt.Sprintf("edges=%d execs=%d corpus=%d queries=%d preds=%d failed=%d shed=%d invalid=%d cache=%d/%d degraded=%d yield=%v",
		s.FinalEdges, s.Executions, s.CorpusSize, s.PMMQueries, s.PMMPredictions, s.PMMFailed, s.PMMShed,
		s.PMMInvalidSlots, s.PMMCacheHits, s.PMMCacheMisses, s.DegradedSteps, s.Yield)
	for _, vm := range s.VMs {
		out += fmt.Sprintf(" vm%d=%d/%d/%d/%d", vm.VM, vm.Executions, vm.NewEdges, vm.Queries, vm.Epochs)
	}
	out += fmt.Sprintf(" online=%d/%d/%d/v%d series=%d@%s crashes=%d@%s",
		s.ModelRetrains, s.ModelSwaps, s.ModelSwapsSkipped, s.ModelVersion,
		len(s.Series), series, len(s.Crashes), crashes)
	return out
}

// singleHostGolden pins one single-host campaign's outputs.
type singleHostGolden struct {
	corpus, cover, journal, stats string
}

func requireGolden(t *testing.T, label string, got *Result, want singleHostGolden) {
	t.Helper()
	have := singleHostGolden{got.CorpusDigest, got.CoverDigest, got.JournalDigest, statsSummary(got.Stats)}
	if have != want {
		t.Errorf("%s: single-host outputs moved:\ncorpus  %s\ncover   %s\njournal %s\nstats   %s",
			label, have.corpus, have.cover, have.journal, have.stats)
	}
}

// TestSingleHostGoldenDigests pins the single-host epoch-barrier engine's
// outputs — corpus, coverage and journal digests plus a stats summary — for
// Syzkaller campaigns at VMs=2 and VMs=4, a Snowplow campaign at VMs=4 with
// the deterministic graph-cache simulation, and an online-learning
// campaign at VMs=1. The cluster equivalence tests only prove the two
// engines agree with each other; these goldens catch a change that moves
// both at once.
func TestSingleHostGoldenDigests(t *testing.T) {
	t.Run("syzkaller-vms2", func(t *testing.T) {
		got := runSingleHost(t, baseConfig(61, 200_000, 2))
		requireGolden(t, "syzkaller-vms2", got, singleHostGolden{
			corpus:  "248120bea73c656742c41e66fc2f824c3497d5271f203dc48d9071da8643807d",
			cover:   "c105cef40292d0365322ab2ad73ab660cb8e4fb19704a596c28f1c0164724e0a",
			journal: "0a9d399dd3e537f9aa9219378e091a49aa010ac5bda81af0ef6e1f7955aaccce",
			stats:   "edges=3542 execs=4959 corpus=636 queries=0 preds=0 failed=0 shed=0 invalid=0 cache=0/0 degraded=0 yield={0 0 2961 571 1248 1016 740 1930} vm0=2490/1728/0/32 vm1=2469/1668/0/32 online=0/0/0/v0 series=101@fc40eb59f8486db2 crashes=105@3dec0456c11ae2d9",
		})
	})
	t.Run("syzkaller-vms4", func(t *testing.T) {
		got := runSingleHost(t, baseConfig(62, 200_000, 4))
		requireGolden(t, "syzkaller-vms4", got, singleHostGolden{
			corpus:  "84a92920fbd6a6095d7e0205086dcd6b7719aec53e034c19cd5670985767bb78",
			cover:   "34b37afd51220d22435c6073f73384f0f6f123ce533b1e17571dc47ba57a6320",
			journal: "1473557f66f3f7ab51e207281659ff009df26cbce844f122bdfd8c16c124f8bb",
			stats:   "edges=3472 execs=4842 corpus=628 queries=0 preds=0 failed=0 shed=0 invalid=0 cache=0/0 degraded=0 yield={0 0 2928 596 1170 972 734 1885} vm0=1246/812/0/32 vm1=1180/950/0/32 vm2=1205/686/0/32 vm3=1211/822/0/32 online=0/0/0/v0 series=101@aa06139cedfda393 crashes=105@a8c16169daedabe5",
		})
	})
	t.Run("snowplow-vms4", func(t *testing.T) {
		m, err := pmm.Load(bytes.NewReader(testModelBytes(t)))
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.NewServerOpts(m, qgraph.NewBuilder(testKernel, testAn).WithCache(256), serve.Options{
			Workers:   2,
			QueueSize: 1024,
			Deadline:  30 * time.Second,
		})
		defer srv.Close()
		cfg := baseConfig(63, 200_000, 4)
		cfg.Mode = fuzzer.ModeSnowplow
		cfg.Server = srv
		got := runSingleHost(t, cfg)
		requireGolden(t, "snowplow-vms4", got, singleHostGolden{
			corpus:  "b3cc20bfe128b2fe0f8f5bd6505034a3600861823559c40de6fccb8bc541c69e",
			cover:   "b398bb1e5dde38d564107b40c709d7f8ce3e4230af138c158c4482a020297aac",
			journal: "fbc9c54ff4d59a641dce8ba613f4d4fece95ab207d27ad6cd8aa750de7b8e425",
			stats:   "edges=2117 execs=4945 corpus=338 queries=441 preds=441 failed=0 shed=0 invalid=0 cache=101/340 degraded=0 yield={3851 348 601 116 299 562 184 1036} vm0=1260/442/105/23 vm1=1177/418/96/24 vm2=1203/566/104/23 vm3=1305/524/136/24 online=0/0/0/v0 series=101@caf144653fc57137 crashes=62@0ebfd236e3798d84",
		})
	})
	t.Run("online-vms1", func(t *testing.T) {
		cfg, _, srv := onlineTestConfig(t, 64, 100_000)
		defer srv.Close()
		cfg.VMs = 1
		cfg.Online.Every = 8 // four retrains keep the test short
		got := runSingleHost(t, cfg)
		requireSwapActivity(t, "online-vms1", got)
		requireGolden(t, "online-vms1", got, singleHostGolden{
			corpus:  "14f994c54a9d3c1ff6958b435c908dcd8c810efce35977d3b1580b9ee305211a",
			cover:   "d5b40f09debeed2e83594ba7bc5b91e540017b2d54cbed6f5346c846e22225fb",
			journal: "8fe30a3123a9246a34520a23f099f2a32a68dff8272f2144b0d491cc2711c772",
			stats:   "edges=1706 execs=2910 corpus=235 queries=198 preds=198 failed=0 shed=0 invalid=0 cache=0/0 degraded=0 yield={2349 309 293 105 153 349 105 839} vm0=2910/1602/198/28 online=3/1/2/v2 series=101@00fc91f8def7bc0c crashes=50@d4592b306505851e",
		})
	})
}
