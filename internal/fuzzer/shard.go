// The VM side of the epoch-barrier engine: a Shard runs a subset of a
// campaign's VM workers against a corpus replica and exports each epoch's
// contributions — the exact per-VM local additions, buffered journal
// events and post-epoch VM state — for the Reconciler (reconcile.go). The
// single host drives one in-process Shard that owns every VM and whose
// replica is the campaign corpus itself; a cluster runs one Shard per
// worker process and ships the contributions as wire deltas, and the
// coordinator broadcasts the accepted entries back. Either way the merge
// schedule is the same, so the corpus, coverage, journal and counters are
// bit-identical per seed.
//
// The seam also makes VMs portable. A VMState snapshot is everything a
// worker's future behavior depends on — mutation RNG, flaky-crash RNG,
// simulated cost, counters, crash dedup table and in-flight prediction
// window — so a VM captured at a barrier can be restored onto any shard
// (worker churn) or into a campaign checkpoint and continue bit-identically.
// The only serving-dependent escape hatch is the phantom-reply counter:
// cluster determinism, like the journal's, assumes fault-free inference
// serving (predictions are deterministic in the model, so resubmitting a
// pending query after restore yields the reply the lost VM would have
// received).

package fuzzer

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/mutation"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
	"github.com/repro/snowplow/internal/trace"
)

// VMCounters are one VM's scalar campaign counters, round-tripped through
// checkpoints so a restored VM's final stats line matches the uninterrupted
// run.
type VMCounters struct {
	Executions      int64
	PMMQueries      int64
	PMMPredictions  int64
	PMMFailed       int64
	PMMShed         int64
	PMMInvalidSlots int64
	DegradedSteps   int64
	Yield           YieldStats
}

// CrashState is one deduplicated crash observation in wire/checkpoint form:
// the full crash spec plus the report fields, so a restored VM reproduces
// both its dedup table and its report list.
type CrashState struct {
	Title      string
	Category   string
	Detector   string
	KnownSince string
	Flaky      bool
	ProgText   string
	Cost       int64
}

// PredState is one entry of a VM's prediction window in wire form. Exactly
// one of Pending (query in flight; Targets is what it asked for) or a
// non-nil Slots (reply arrived, not yet consumed) is meaningful. Consumed
// predictions are omitted: an absent state and a consumed state both make
// the next pick of the entry resubmit an identical query. Local marks a
// prediction attached to an entry from the VM's own just-finished epoch
// (not yet merged); the coordinator resolves it against the merge outcome
// before the state becomes canonical.
type PredState struct {
	Text    string
	Local   bool
	Pending bool
	Targets []kernel.BlockID
	Slots   []prog.GlobalSlot
}

// VMState is the complete portable state of one VM worker, captured at an
// epoch barrier. Restoring it onto any shard whose replica matches the
// barrier's corpus resumes the VM bit-identically.
type VMState struct {
	VM        int
	RNG       [4]uint64 // mutation/scheduling RNG (rng.Rand.State)
	Flaky     [4]uint64 // executor flaky-crash RNG
	Execs     int64     // machine counters
	BlocksRun int64
	Cost      int64
	Budget    int64
	Epochs    int64
	// Reconciled is the VM's post-dedup new-edge yield. It is owned by the
	// coordinator (only the merge knows who won) and round-tripped here so
	// restored workers carry it into their final stats line.
	Reconciled int64
	// Phantom counts prediction replies owed to the VM whose base entries
	// died in a merge before the reply landed; see worker.phantom.
	Phantom int
	// QueueWaitNs is accumulated wall-clock barrier wait. Carried for the
	// stats line only; excluded from all determinism guarantees.
	QueueWaitNs int64
	Counters    VMCounters
	Crashes     []CrashState
	Preds       []PredState
}

// Local is one program a VM accepted during an epoch, in wire form: the
// serialized program and its per-call traces. Cover and block sets are
// recomputed on receipt (corpus.EntryFromTraces) — traces must travel
// because flaky crash blocks make re-execution nondeterministic.
type Local struct {
	Text   string
	Traces [][]kernel.BlockID
	Seeded bool
}

// VMDelta is one VM's contribution to an epoch barrier: its local corpus
// additions in acceptance order, its buffered journal events, and its
// post-epoch state.
type VMDelta struct {
	VM     int
	Locals []Local
	Events []obs.Event
	State  VMState
	// CrashBase is a wire-level transfer optimization: the number of
	// leading State.Crashes entries elided because the receiver already
	// holds them from the previous barrier (the per-VM crash table is
	// append-only, so the prior table is always an exact prefix). Zero
	// everywhere outside the cluster wire path; the cluster coordinator
	// re-prepends the elided prefix on receipt, so merged state never
	// sees a trimmed table.
	CrashBase int
}

// Accepted is one merge-accepted corpus entry in broadcast order. VM is the
// winning VM (-1 for checkpoint-snapshot replays, where no shard owns the
// entry); shards that own the winning VM splice their original *Entry back
// in, preserving the pointer identity the prediction cache keys on.
type Accepted struct {
	VM     int
	Seeded bool
	Text   string
	Traces [][]kernel.BlockID
}

// InitialVMState is the state of VM vm before a campaign starts: fresh RNG
// streams, zero counters, and the VM's share of the budget (VM 0 takes the
// division remainder).
func InitialVMState(cfg Config, vm int) VMState {
	cfg = cfg.Normalized()
	per := cfg.Budget / int64(cfg.VMs)
	budget := per
	if vm == 0 {
		budget += cfg.Budget - per*int64(cfg.VMs)
	}
	return VMState{
		VM:     vm,
		RNG:    rng.New(cfg.Seed + vmSeedStride*uint64(vm)).State(),
		Flaky:  exec.InitialFlakyState(),
		Budget: budget,
	}
}

// Shard hosts a subset of a campaign's VM workers against a full corpus
// replica. Its driver steps it strictly in barrier steps: ApplyAccepted
// (sync the replica with the last merge), then RunEpoch (fuzz one slice,
// export contributions). A Shard is not safe for concurrent use by
// multiple drivers.
type Shard struct {
	cfg    Config
	corp   *corpus.Corpus
	blocks trace.BlockSet
	// byText maps replica entry text to the replica's pointer for that
	// entry, so VMState prediction windows can be re-attached on restore.
	byText  map[string]*corpus.Entry
	workers map[int]*worker
	// lastLocals keeps each owned VM's previous-epoch local entries until
	// the merge outcome arrives, so accepted entries that this shard's own
	// VM produced are spliced back with their original pointer identity.
	lastLocals map[int][]LocalEntry
	syncEvery  int64
	// m and trackKeys hand the single host's instrument bundle and
	// cache-key buffering to every restored worker.
	m         *campaignMetrics
	trackKeys bool
}

// NewShard creates an empty shard for the campaign config. The config's
// Journal, when non-nil, acts purely as a flag: shard workers buffer their
// events for the reconciler and never record to a local journal, so any
// non-nil sentinel (e.g. obs.NewJournal(1)) enables event capture.
func NewShard(cfg Config) (*Shard, error) {
	return newShard(cfg, corpus.New())
}

// newShard creates an empty shard whose replica is corp.
func newShard(cfg Config, corp *corpus.Corpus) (*Shard, error) {
	cfg = cfg.Normalized()
	if err := serve.CheckInferrer(cfg.Server); err != nil {
		return nil, fmt.Errorf("fuzzer: shard: Config.Server: %w", err)
	}
	if cfg.Mode == ModeSnowplow && cfg.Server == nil {
		return nil, fmt.Errorf("fuzzer: shard in Snowplow mode requires an inference server")
	}
	if cfg.Kernel == nil {
		return nil, fmt.Errorf("fuzzer: shard requires a kernel")
	}
	per := cfg.Budget / int64(cfg.VMs)
	syncEvery := cfg.SyncEvery
	if syncEvery <= 0 {
		syncEvery = per / 32
	}
	if syncEvery <= 0 {
		syncEvery = 1
	}
	return &Shard{
		cfg:        cfg,
		corp:       corp,
		byText:     map[string]*corpus.Entry{},
		workers:    map[int]*worker{},
		lastLocals: map[int][]LocalEntry{},
		syncEvery:  syncEvery,
	}, nil
}

// Corpus exposes the shard's corpus replica (digest checks in tests).
func (s *Shard) Corpus() *corpus.Corpus { return s.corp }

// Owned returns the shard's VM ids in ascending order.
func (s *Shard) Owned() []int {
	ids := make([]int, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Restore adds one worker per VMState to the shard, resuming each VM
// exactly where its state was captured. The replica must already match the
// corpus the states were captured against (ApplyAccepted/ApplySnapshot
// first), or prediction windows cannot be re-attached.
func (s *Shard) Restore(states []VMState) error {
	for _, st := range states {
		if err := s.restoreWorker(st); err != nil {
			return err
		}
	}
	return nil
}

func (s *Shard) restoreWorker(st VMState) error {
	if _, dup := s.workers[st.VM]; dup {
		return fmt.Errorf("fuzzer: shard already hosts VM %d", st.VM)
	}
	stats := &Stats{
		Mode:            s.cfg.Mode,
		Executions:      st.Counters.Executions,
		PMMQueries:      st.Counters.PMMQueries,
		PMMPredictions:  st.Counters.PMMPredictions,
		PMMFailed:       st.Counters.PMMFailed,
		PMMShed:         st.Counters.PMMShed,
		PMMInvalidSlots: st.Counters.PMMInvalidSlots,
		DegradedSteps:   st.Counters.DegradedSteps,
		Yield:           st.Counters.Yield,
	}
	exe := exec.NewMachine(s.cfg.Kernel, st.VM)
	exe.RestoreFlaky(st.Flaky)
	exe.Execs = st.Execs
	exe.BlocksRun = st.BlocksRun
	w := &worker{
		cfg:          &s.cfg,
		id:           st.VM,
		r:            rng.FromState(st.RNG),
		exe:          exe,
		mut:          mutation.NewMutator(s.cfg.Kernel.Target),
		gen:          prog.NewGenerator(s.cfg.Kernel.Target),
		preds:        map[*corpus.Entry]*entryPrediction{},
		crashSeen:    map[string]*CrashReport{},
		stats:        stats,
		cost:         st.Cost,
		budget:       st.Budget,
		epochs:       st.Epochs,
		reconciled:   st.Reconciled,
		queueWaitNs:  st.QueueWaitNs,
		phantom:      st.Phantom,
		deferHarvest: true,
		scratchCover: trace.NewCover(),
		m:            s.m,
		jn:           s.cfg.Journal,
		trackKeys:    s.trackKeys,
	}
	for _, cs := range st.Crashes {
		report := cs.report()
		w.crashSeen[cs.Title] = report
		stats.Crashes = append(stats.Crashes, report)
	}
	for _, ps := range st.Preds {
		entry := s.byText[ps.Text]
		if entry == nil {
			return fmt.Errorf("fuzzer: VM %d prediction references unknown corpus entry %q", st.VM, ps.Text)
		}
		ep := &entryPrediction{}
		if ps.Pending {
			// Resubmit the captured query verbatim: no PMMQueries recount
			// (the original submission already counted) and no RNG draw
			// (target sampling happened before capture). The model is
			// deterministic, so the reply matches what the lost VM would
			// have harvested. A submit error can only mean a closed server;
			// the window entry then behaves as consumed, which only
			// diverges under serving faults (outside the guarantee).
			if reply, err := s.cfg.Server.InferAsync(serve.Query{
				Prog:    entry.Prog,
				Traces:  entry.Traces,
				Targets: ps.Targets,
			}); err == nil {
				ep.reply = reply
				ep.targets = append([]kernel.BlockID(nil), ps.Targets...)
			}
		} else {
			ep.pred = &serve.Prediction{Slots: append([]prog.GlobalSlot(nil), ps.Slots...)}
		}
		w.preds[entry] = ep
	}
	s.workers[st.VM] = w
	return nil
}

// SeedPass runs the campaign's seed-corpus pass on VM 0 (which this shard
// must own) directly against the replica, before the first epoch, and
// exports the seeded entries plus VM 0's state as a delta for the
// coordinator to merge and broadcast.
func (s *Shard) SeedPass() (*VMDelta, error) {
	c, err := s.seedPass()
	if err != nil {
		return nil, err
	}
	d := c.delta()
	return &d, nil
}

func (s *Shard) seedPass() (Contribution, error) {
	w := s.workers[0]
	if w == nil {
		return Contribution{}, fmt.Errorf("fuzzer: seed pass requires this shard to own VM 0")
	}
	w.view = &sharedView{corp: s.corp, blocks: &s.blocks}
	for _, p := range s.cfg.SeedCorpus {
		if err := w.seed(p); err != nil {
			return Contribution{}, err
		}
	}
	w.jevent(obs.EventSeed, int64(s.corp.Len()), "")
	c := Contribution{VM: 0, Events: w.events}
	w.events = nil
	for _, e := range s.corp.Entries() {
		s.byText[e.Text] = e
		c.Entries = append(c.Entries, LocalEntry{Entry: e, Seeded: true})
	}
	c.State = s.captureState(w)
	return c, nil
}

// ApplyAccepted syncs the replica with the last barrier's merge outcome:
// the accepted entries, in merge order. Entries produced by a VM this shard
// owns are spliced back with their original pointers (the prediction cache
// keys on entry identity); everything else is rebuilt from the wire form.
// An entry already in the replica is only indexed: that is the seed
// owner's own seeds, and every entry when the replica is the reconciler's
// corpus (the single host), where the merge itself inserted it. The
// previous epoch's local buffers are consumed.
func (s *Shard) ApplyAccepted(accepted []Accepted) error {
	for _, a := range accepted {
		var e *corpus.Entry
		for _, l := range s.lastLocals[a.VM] {
			if l.Entry.Text == a.Text {
				e = l.Entry
				break
			}
		}
		if s.corp.HasText(a.Text) {
			if e != nil {
				s.byText[a.Text] = e
			}
			continue
		}
		if e == nil {
			p, err := prog.Parse(s.cfg.Kernel.Target, a.Text)
			if err != nil {
				return fmt.Errorf("fuzzer: bad accepted entry: %w", err)
			}
			e = corpus.EntryFromTraces(p, a.Traces)
		}
		if s.corp.SeedEntry(e) {
			s.blocks.Merge(e.Blocks)
			s.byText[e.Text] = e
		}
	}
	clear(s.lastLocals)
	return nil
}

// ApplySnapshot rebuilds the replica from a checkpoint's corpus snapshot
// (entries in publish order). The shard must be empty.
func (s *Shard) ApplySnapshot(entries []Accepted) error {
	if s.corp.Len() != 0 {
		return fmt.Errorf("fuzzer: snapshot onto non-empty shard replica")
	}
	return s.ApplyAccepted(entries)
}

// RunEpoch fuzzes one barrier slice. With only == nil every owned VM with
// remaining budget runs (the normal schedule, identical on every shard
// because cost is deterministic); a non-nil only lists specific VMs — the
// reassignment path, where freshly restored VMs re-run an epoch their dead
// shard never delivered. Deltas are returned in ascending VM order with
// each VM's pre-merge state.
func (s *Shard) RunEpoch(epoch int64, only []int) ([]VMDelta, error) {
	cs, err := s.runEpoch(epoch, only)
	if err != nil {
		return nil, err
	}
	deltas := make([]VMDelta, len(cs))
	for i, c := range cs {
		deltas[i] = c.delta()
	}
	return deltas, nil
}

func (s *Shard) runEpoch(epoch int64, only []int) ([]Contribution, error) {
	var ws []*worker
	if only == nil {
		for _, id := range s.Owned() {
			if w := s.workers[id]; w.cost < w.budget {
				ws = append(ws, w)
			}
		}
	} else {
		sorted := append([]int(nil), only...)
		sort.Ints(sorted)
		for _, id := range sorted {
			w := s.workers[id]
			if w == nil {
				return nil, fmt.Errorf("fuzzer: epoch requested for VM %d not on this shard", id)
			}
			ws = append(ws, w)
		}
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		w.view = newEpochView(s.corp, &s.blocks)
		w.epoch = epoch
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			t0 := time.Now()
			w.harvestPending()
			w.runEpoch(s.syncEvery)
			w.epochElapsed = time.Since(t0)
		}(w)
	}
	wg.Wait()
	cs := make([]Contribution, 0, len(ws))
	for _, w := range ws {
		if w.err != nil {
			return nil, w.err
		}
		w.epochs++
		ev := w.view.(*epochView)
		s.lastLocals[w.id] = ev.locals
		cs = append(cs, Contribution{VM: w.id, Entries: ev.locals, Events: w.events, State: s.captureState(w)})
		w.events = nil
	}
	return cs, nil
}

// DrainPredictions blocking-drains every owned VM's in-flight prediction
// replies in ascending VM order without capturing state. Both drivers call
// it before an online swap changes the serving model, so every query is
// answered by the model generation of its submission epoch. Harvested
// replies stay invisible until each VM's next epoch (deferred harvest), so
// the drain moves no information across the barrier.
func (s *Shard) DrainPredictions() {
	for _, id := range s.Owned() {
		s.workers[id].harvestPending()
	}
}

// FinalDrain blocking-drains every owned VM's outstanding prediction
// replies — whether a late reply counts as a prediction or a failure must
// depend on its content, not on wall-clock arrival — and returns the final
// states in ascending VM order.
func (s *Shard) FinalDrain() []VMState {
	var states []VMState
	for _, id := range s.Owned() {
		w := s.workers[id]
		w.harvestPending()
		states = append(states, s.captureState(w))
	}
	return states
}

// report rebuilds the crash report a CrashState was captured from.
func (cs CrashState) report() *CrashReport {
	return &CrashReport{
		Spec: &kernel.CrashSpec{
			Title:      cs.Title,
			Category:   cs.Category,
			Detector:   cs.Detector,
			KnownSince: cs.KnownSince,
			Flaky:      cs.Flaky,
		},
		ProgText: cs.ProgText,
		Cost:     cs.Cost,
	}
}

// captureState snapshots a worker into its portable wire form. Prediction
// windows are exported sorted by entry text (map order must not leak), with
// entries not present in the replica marked Local for the coordinator to
// resolve against the merge outcome.
func (s *Shard) captureState(w *worker) VMState {
	st := VMState{
		VM:          w.id,
		RNG:         w.r.State(),
		Flaky:       w.exe.FlakyState(),
		Execs:       w.exe.Execs,
		BlocksRun:   w.exe.BlocksRun,
		Cost:        w.cost,
		Budget:      w.budget,
		Epochs:      w.epochs,
		Reconciled:  w.reconciled,
		Phantom:     w.phantom,
		QueueWaitNs: w.queueWaitNs,
		Counters: VMCounters{
			Executions:      w.stats.Executions,
			PMMQueries:      w.stats.PMMQueries,
			PMMPredictions:  w.stats.PMMPredictions,
			PMMFailed:       w.stats.PMMFailed,
			PMMShed:         w.stats.PMMShed,
			PMMInvalidSlots: w.stats.PMMInvalidSlots,
			DegradedSteps:   w.stats.DegradedSteps,
			Yield:           w.stats.Yield,
		},
	}
	for _, cr := range w.stats.Crashes {
		st.Crashes = append(st.Crashes, CrashState{
			Title:      cr.Spec.Title,
			Category:   cr.Spec.Category,
			Detector:   cr.Spec.Detector,
			KnownSince: cr.Spec.KnownSince,
			Flaky:      cr.Spec.Flaky,
			ProgText:   cr.ProgText,
			Cost:       cr.Cost,
		})
	}
	for entry, ep := range w.preds {
		if ep.pred == nil && ep.reply == nil {
			continue // consumed: absent and consumed behave identically
		}
		ps := PredState{Text: entry.Text, Local: s.byText[entry.Text] != entry}
		if ep.reply != nil {
			ps.Pending = true
			ps.Targets = append([]kernel.BlockID(nil), ep.targets...)
		} else {
			ps.Slots = append([]prog.GlobalSlot(nil), ep.pred.Slots...)
		}
		st.Preds = append(st.Preds, ps)
	}
	sort.Slice(st.Preds, func(i, j int) bool { return st.Preds[i].Text < st.Preds[j].Text })
	return st
}
