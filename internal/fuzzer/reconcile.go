// The epoch-barrier reconciler: the one place a multi-VM campaign's barrier
// semantics live. Two drivers feed it — the single-host engine
// (parallel.go) hands over its in-process shard's entry pointers, and the
// cluster coordinator (internal/cluster) parses its workers' wire deltas
// first — and everything it does is a pure function of the contributions
// in ascending VM order:
//
//   - merge each VM's locals into the campaign corpus under the global
//     sequence counter and credit the VM's Reconciled edges;
//   - flush the seed events and the buffered journal events, then write
//     the EventEpoch record;
//   - sample the coverage series against fleet simulated time;
//   - journal the online-learning swap and kickoff;
//   - assemble the final Stats from the per-VM states.
//
// Because both drivers call the same code, a W-worker cluster reproduces
// the single-host VMs=N campaign bit for bit by construction.

package fuzzer

import (
	"fmt"

	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/online"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/trace"
)

// LocalEntry is one program a VM accepted during an epoch, pending
// reconciliation.
type LocalEntry struct {
	Entry  *corpus.Entry
	Seeded bool // unconditional insert (seed pass), not new-edge gated
}

// Contribution is one VM's share of a barrier in merge form: a VMDelta
// whose Locals are corpus entries rather than wire text.
type Contribution struct {
	VM      int
	Entries []LocalEntry
	Events  []obs.Event
	State   VMState
}

// delta converts the contribution to its wire form.
func (c Contribution) delta() VMDelta {
	d := VMDelta{VM: c.VM, Events: c.Events, State: c.State}
	for _, l := range c.Entries {
		d.Locals = append(d.Locals, Local{Text: l.Entry.Text, Traces: l.Entry.Traces, Seeded: l.Seeded})
	}
	return d
}

// Reconciler owns an epoch-barrier campaign's authoritative state. Drivers
// call Seed once, then per barrier advance Epoch, run the epoch, and call
// Merge and OnlineBarrier; Finish assembles the result. The exported
// fields are the post-merge barrier state that cluster checkpoints
// round-trip.
type Reconciler struct {
	States     []VMState // canonical per-VM states, indexed by VM id
	Epoch      int64     // current (after Merge: last merged) epoch
	Seq        int64     // merge sequence counter
	NextSample int64     // next coverage-series sampling point
	Series     []Point
	// PendingSeed buffers the seed pass's journal events until VM 0's
	// first epoch contribution is flushed, so they land where a VM's
	// buffered events always land: at its first barrier.
	PendingSeed []obs.Event
	SeedFlushed bool
	// ModelVersion is the serving checkpoint generation: the last accepted
	// online swap, 0 for the initial model.
	ModelVersion int64

	cfg  Config
	corp *corpus.Corpus
	jn   *obs.Journal
	ctl  *online.Controller
	// blocks, when set, tracks the covered blocks of corp. The single host
	// sets it because its shard reads blocks from the same replica.
	blocks *trace.BlockSet
}

// NewReconciler creates the reconciler of a fresh campaign: every VM in
// its initial state, the sampling cursor at the first point. Merged
// entries go into corp, barrier events into jn (nil disables the
// journal), and ctl, when non-nil, drives online learning.
func NewReconciler(cfg Config, corp *corpus.Corpus, jn *obs.Journal, ctl *online.Controller) *Reconciler {
	cfg = cfg.Normalized()
	r := &Reconciler{cfg: cfg, corp: corp, jn: jn, ctl: ctl, NextSample: cfg.SampleEvery}
	for vm := 0; vm < cfg.VMs; vm++ {
		r.States = append(r.States, InitialVMState(cfg, vm))
	}
	return r
}

// Active returns the VMs with remaining budget, ascending.
func (r *Reconciler) Active() []int {
	var out []int
	for vm, st := range r.States {
		if st.Cost < st.Budget {
			out = append(out, vm)
		}
	}
	return out
}

// fleetCost is the campaign's simulated time: the sum of per-VM costs.
func (r *Reconciler) fleetCost() int64 {
	var fleet int64
	for _, st := range r.States {
		fleet += st.Cost
	}
	return fleet
}

// insert adds one entry to the campaign corpus, new-edge gated unless
// seeded, and reports the new edges it contributed (seeded: 1 if
// inserted) or 0 when rejected.
func (r *Reconciler) insert(l LocalEntry) int {
	n := 0
	if l.Seeded {
		if r.corp.SeedEntry(l.Entry) {
			n = 1
		}
	} else {
		n = r.corp.AddEntry(l.Entry)
	}
	if n > 0 && r.blocks != nil {
		r.blocks.Merge(l.Entry.Blocks)
	}
	return n
}

// Seed records the seed pass: VM 0's contribution before the first epoch.
// Seeds are inserted outside the sequence counter, and the returned
// entries are the first barrier's broadcast.
func (r *Reconciler) Seed(c Contribution) []Accepted {
	accepted := make([]Accepted, 0, len(c.Entries))
	for _, l := range c.Entries {
		r.insert(l)
		accepted = append(accepted, Accepted{VM: c.VM, Seeded: true, Text: l.Entry.Text, Traces: l.Entry.Traces})
	}
	r.PendingSeed = c.Events
	r.States[c.VM] = c.State
	return accepted
}

// Merge applies one barrier's contributions, which must be in ascending VM
// order, and returns the accepted entries in merge order. Every local is
// sequenced and re-gated against the campaign cover, so acceptance (which
// program wins a text-dedup tie, which edges count as new) is a pure
// function of (epoch, VM, local order). Each VM's canonical state is its
// contributed state with the fields only the merge can know overridden:
// Reconciled, and the fate of predictions attached to its own fresh
// entries.
func (r *Reconciler) Merge(cs []Contribution) []Accepted {
	winners := map[string]int{}
	newEdges := map[int]int64{}
	var accepted []Accepted
	for _, c := range cs {
		for _, l := range c.Entries {
			r.Seq++
			n := r.insert(l)
			if n == 0 {
				continue
			}
			if !l.Seeded {
				newEdges[c.VM] += int64(n)
			}
			winners[l.Entry.Text] = c.VM
			accepted = append(accepted, Accepted{VM: c.VM, Seeded: l.Seeded, Text: l.Entry.Text, Traces: l.Entry.Traces})
		}
	}

	for _, c := range cs {
		st := c.State
		st.Reconciled = r.States[c.VM].Reconciled + newEdges[c.VM]
		var preds []PredState
		for _, ps := range st.Preds {
			if !ps.Local {
				preds = append(preds, ps)
				continue
			}
			if w, ok := winners[ps.Text]; ok && w == c.VM {
				// The VM's own entry survived the merge; the prediction
				// window rides along (the owning shard splices the entry
				// pointer back, so its live cache agrees).
				ps.Local = false
				preds = append(preds, ps)
				continue
			}
			// The base entry lost the merge. A pending query's reply is
			// still owed to the VM (the live worker harvests it next
			// epoch), so a restored VM must account for it: Phantom counts
			// replies to settle without a live channel.
			if ps.Pending {
				st.Phantom++
			}
		}
		st.Preds = preds
		r.States[c.VM] = st
	}

	if r.jn != nil {
		for _, c := range cs {
			if c.VM == 0 {
				r.flushSeed()
			}
			for _, e := range c.Events {
				r.jn.Record(e)
			}
		}
		r.jn.Record(obs.Event{
			Kind: obs.EventEpoch, VM: -1, Epoch: r.Epoch,
			Value:  int64(r.corp.Len()),
			Detail: fmt.Sprintf("edges=%d", r.corp.TotalEdges()),
		})
	}

	fleet := r.fleetCost()
	for r.NextSample <= fleet {
		r.Series = append(r.Series, Point{Cost: r.NextSample, Edges: r.corp.TotalEdges()})
		r.NextSample += r.cfg.SampleEvery
	}
	return accepted
}

// flushSeed records the buffered seed events, once.
func (r *Reconciler) flushSeed() {
	if r.SeedFlushed {
		return
	}
	for _, e := range r.PendingSeed {
		r.jn.Record(e)
	}
	r.PendingSeed = nil
	r.SeedFlushed = true
}

// OnlineBarrier runs the continual-learning schedule after a merge: resolve
// a due swap — apply installs an accepted model on every serving surface,
// draining in-flight queries first — then kick off a due retrain over the
// merged corpus. Both outcomes are journaled with their canonical payloads
// (Swap.Detail, online.KickoffDetail). A frozen-model campaign is a no-op.
func (r *Reconciler) OnlineBarrier(apply func(*online.Swap) error) error {
	if r.ctl == nil {
		return nil
	}
	if sw := r.ctl.SwapDue(r.Epoch); sw != nil {
		if sw.Accepted {
			if err := apply(sw); err != nil {
				return err
			}
			r.ModelVersion = sw.Version
		}
		r.jn.Record(obs.Event{
			Kind: obs.EventModelSwap, VM: -1, Epoch: r.Epoch,
			Value: sw.Version, Detail: sw.Detail(),
		})
	}
	if r.ctl.ShouldKickoff(r.Epoch, r.corp.Len()) {
		entries := r.corp.Entries()
		bases := make([]*prog.Prog, len(entries))
		for i, e := range entries {
			bases[i] = e.Prog
		}
		v := r.ctl.Kickoff(r.Epoch, bases)
		r.jn.Record(obs.Event{
			Kind: obs.EventModelTrain, VM: -1, Epoch: r.Epoch,
			Value: v, Detail: online.KickoffDetail(len(bases)),
		})
	}
	return nil
}

// Finish closes the campaign and assembles its Stats from the final
// (drained) per-VM states in ascending VM order: summed counters,
// title-deduplicated crash reports, one VMStat per VM, and the final
// series point. Seed events never attached to a VM-0 barrier (the budget
// died before VM 0's first epoch) are flushed first. The serving-cache
// counters stay zero; only the single host can pin them (see
// Fuzzer.fillCacheStats).
func (r *Reconciler) Finish(finals []VMState) *Stats {
	if r.jn != nil {
		r.flushSeed()
	}
	stats := &Stats{Mode: r.cfg.Mode}
	var fleet int64
	for vm, st := range finals {
		cnt := st.Counters
		stats.Executions += cnt.Executions
		stats.PMMQueries += cnt.PMMQueries
		stats.PMMPredictions += cnt.PMMPredictions
		stats.PMMFailed += cnt.PMMFailed
		stats.PMMShed += cnt.PMMShed
		stats.PMMInvalidSlots += cnt.PMMInvalidSlots
		stats.DegradedSteps += cnt.DegradedSteps
		stats.Yield.add(cnt.Yield)
		for _, cs := range st.Crashes {
			dup := false
			for _, have := range stats.Crashes {
				if have.Spec.Title == cs.Title {
					dup = true
					break
				}
			}
			if !dup {
				stats.Crashes = append(stats.Crashes, cs.report())
			}
		}
		stats.VMs = append(stats.VMs, VMStat{
			VM:          vm,
			Executions:  cnt.Executions,
			NewEdges:    r.States[vm].Reconciled,
			Queries:     cnt.PMMQueries,
			Epochs:      st.Epochs,
			QueueWaitNs: st.QueueWaitNs,
		})
		fleet += st.Cost
	}
	stats.CorpusSize = r.corp.Len()
	stats.FinalEdges = r.corp.TotalEdges()
	stats.Series = append([]Point(nil), r.Series...)
	if len(stats.Series) == 0 || stats.Series[len(stats.Series)-1].Cost < fleet {
		stats.Series = append(stats.Series, Point{Cost: fleet, Edges: stats.FinalEdges})
	}
	if r.ctl != nil {
		stats.ModelRetrains, stats.ModelSwaps, stats.ModelSwapsSkipped = r.ctl.Stats()
		stats.ModelVersion = r.ModelVersion
	}
	return stats
}
