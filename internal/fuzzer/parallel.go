// Parallel campaign engine: N simulated VMs run the generate→exec→trace→
// triage loop concurrently against a shared corpus.
//
// Determinism is the design constraint. A naive shared-corpus race would
// make every multi-VM campaign irreproducible, so the engine runs the fleet
// in lockstep epochs:
//
//   - At an epoch start each VM snapshots the shared corpus (an epochView:
//     the frozen entry list, a private clone of the total cover, and the
//     VM's own intra-epoch additions).
//   - VMs then fuzz independently for a bounded slice of simulated cost
//     (Config.SyncEvery) with no shared mutable state; prediction replies
//     are harvested only at the barrier (deferHarvest), so inference
//     latency never leaks wall-clock ordering into the campaign.
//   - At the barrier the Reconciler (reconcile.go) merges each VM's
//     additions into the shared corpus in ascending VM order with a global
//     sequence counter, so acceptance (which program wins a text-dedup tie,
//     which edges count as new) is a pure function of (epoch, VM index,
//     local order) — never of goroutine scheduling.
//
// This file holds the VM-side epoch view and the single-host driver; the
// cluster coordinator is the other driver of the same Shard/Reconciler
// pair. VMs=N campaigns are bit-reproducible for a fixed seed, and the only
// wall-clock observable is the per-VM QueueWaitNs counter (explicitly
// excluded from the determinism guarantee). VMs=1 without online learning
// skips the engine and runs the sequential loop (runSequential).

package fuzzer

import (
	"fmt"
	"time"

	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/online"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/trace"
)

// vmSeedStride decorrelates per-VM RNG streams (the SplitMix64 increment);
// VM 0's stream equals the sequential campaign's stream.
const vmSeedStride = 0x9e3779b97f4a7c15

// epochView is a VM's frozen window onto the campaign for one epoch: the
// shared snapshot taken at the barrier plus the VM's own additions. All
// mutation is VM-private, so mid-epoch the fleet shares nothing mutable.
type epochView struct {
	corp   *corpus.Corpus
	base   []*corpus.Entry // shared entries frozen at epoch start
	total  *trace.Cover    // shared total cover clone + local merges
	blocks trace.BlockSet  // shared covered blocks clone + local merges
	locals []LocalEntry
	byText map[string]bool // local text dedup for this epoch
}

func newEpochView(corp *corpus.Corpus, blocks *trace.BlockSet) *epochView {
	return &epochView{
		corp:   corp,
		base:   corp.Entries(),
		total:  corp.TotalCover(),
		blocks: blocks.Clone(),
		byText: map[string]bool{},
	}
}

func (v *epochView) Choose(r *rng.Rand) *corpus.Entry {
	n := len(v.base) + len(v.locals)
	if n == 0 {
		return nil
	}
	i := r.Intn(n)
	if i < len(v.base) {
		return v.base[i]
	}
	return v.locals[i-len(v.base)].Entry
}

func (v *epochView) Add(p *prog.Prog, cover *trace.Cover, blocks trace.BlockSet, traces [][]kernel.BlockID) int {
	return v.add(p, cover, blocks, traces, false)
}

func (v *epochView) Seed(p *prog.Prog, cover *trace.Cover, blocks trace.BlockSet, traces [][]kernel.BlockID) bool {
	return v.add(p, cover, blocks, traces, true) > 0
}

// add applies the corpus acceptance policy against the VM's epoch-local
// view. Accepted entries are cloned off the caller's scratch buffers and
// queued for the reconciler; cross-VM duplicates are resolved at the
// barrier, not here.
func (v *epochView) add(p *prog.Prog, cover *trace.Cover, blocks trace.BlockSet, traces [][]kernel.BlockID, seeded bool) int {
	text := p.Serialize()
	if v.byText[text] || v.corp.HasText(text) {
		return 0
	}
	n := v.total.Merge(cover)
	if n == 0 && !seeded {
		return 0
	}
	v.blocks.Merge(blocks)
	v.byText[text] = true
	v.locals = append(v.locals, LocalEntry{
		Entry: &corpus.Entry{
			Prog:   p,
			Cover:  cover.Clone(),
			Blocks: blocks.Clone(),
			Traces: traces,
			Text:   text,
		},
		Seeded: seeded,
	})
	if seeded && n == 0 {
		return 1 // inserted; Seed only needs a truthy result
	}
	return n
}

func (v *epochView) NewEdges(cover *trace.Cover) int { return v.total.NewEdges(cover) }
func (v *epochView) TotalCover() *trace.Cover        { return v.total }
func (v *epochView) HasBlock(b kernel.BlockID) bool  { return v.blocks.Has(b) }

// runParallel executes the campaign on a fleet of cfg.VMs simulated VMs in
// lockstep epochs. It is the in-process driver of the epoch-barrier engine:
// one Shard owns every VM, and its replica is the campaign corpus itself,
// so the Reconciler merges the shard's entry pointers in place — no wire
// form and no second corpus. What it adds to the shared engine is
// single-host-only and outside every digest: the graph-cache key fold, the
// per-VM gauges, the epoch and barrier-wait histograms, and QueueWaitNs.
func (f *Fuzzer) runParallel() (*Stats, error) {
	sh, err := newShard(f.cfg, f.corp)
	if err != nil {
		return nil, err
	}
	sh.m, sh.trackKeys = f.metrics, f.cacheSim != nil
	rc := NewReconciler(f.cfg, f.corp, f.cfg.Journal, f.online)
	rc.blocks = &sh.blocks
	if err := sh.Restore(rc.States); err != nil {
		return nil, err
	}
	// Seed pass: VM 0 executes the seed corpus straight into the shared
	// corpus before the first epoch, so every VM's first snapshot already
	// contains the seeds.
	seeds, err := sh.seedPass()
	if err != nil {
		return nil, err
	}
	rc.Seed(seeds)

	var gauges []*vmGauges
	if f.metrics != nil {
		gauges = make([]*vmGauges, f.cfg.VMs)
		for i := range gauges {
			gauges[i] = newVMGauges(f.cfg.Metrics, i)
		}
	}
	swap := func(sw *online.Swap) error {
		sh.DrainPredictions()
		if _, err := f.swapper.SwapModel(sw.Model, sw.Version); err != nil {
			return fmt.Errorf("fuzzer: hot-swap model v%d: %w", sw.Version, err)
		}
		return nil
	}
	for len(rc.Active()) > 0 {
		rc.Epoch++
		start := time.Now()
		cs, err := sh.runEpoch(rc.Epoch, nil)
		if err != nil {
			return nil, err
		}
		f.noteBarrier(sh, cs, time.Since(start))
		if err := sh.ApplyAccepted(rc.Merge(cs)); err != nil {
			return nil, err
		}
		if err := rc.OnlineBarrier(swap); err != nil {
			return nil, err
		}
		if f.metrics != nil {
			f.metrics.cost.Set(rc.fleetCost())
			for i, g := range gauges {
				w := sh.workers[i]
				g.execs.Set(w.stats.Executions)
				g.newEdges.Set(rc.States[i].Reconciled)
				g.queries.Set(w.stats.PMMQueries)
				g.queueWaitNs.Set(w.queueWaitNs)
			}
		}
	}

	finals := sh.FinalDrain()
	// An in-flight retrain's swap is never applied — the campaign is over —
	// but its goroutine must not outlive the run.
	if f.online != nil {
		f.online.Wait()
	}
	f.stats = *rc.Finish(finals)
	f.fillCacheStats()
	return &f.stats, nil
}

// noteBarrier records one barrier's single-host extras for the VMs that
// ran: wall-clock barrier wait (QueueWaitNs and the epoch histograms) and
// the graph-cache key fold. Keys fold in ascending VM order (submission
// order within a VM), pinning the simulated hit/miss split to reconcile
// order instead of wall-clock arrival.
func (f *Fuzzer) noteBarrier(sh *Shard, cs []Contribution, barrier time.Duration) {
	for _, c := range cs {
		w := sh.workers[c.VM]
		wait := barrier - w.epochElapsed
		if wait > 0 {
			w.queueWaitNs += wait.Nanoseconds()
		}
		if f.metrics != nil {
			f.metrics.epochs.Inc()
			f.metrics.epochDur.Observe(w.epochElapsed.Nanoseconds())
			if wait > 0 {
				f.metrics.barrierWait.Observe(wait.Nanoseconds())
			}
		}
		if f.cacheSim != nil {
			for _, k := range w.keyBuf {
				f.cacheSim.Touch(k)
			}
			w.keyBuf = w.keyBuf[:0]
		}
	}
}

// runEpoch fuzzes until the worker has consumed one SyncEvery slice of its
// budget (or the budget is exhausted).
func (w *worker) runEpoch(syncEvery int64) {
	limit := w.cost + syncEvery
	if limit > w.budget {
		limit = w.budget
	}
	for w.cost < limit {
		if err := w.step(); err != nil {
			w.err = err
			return
		}
	}
}
