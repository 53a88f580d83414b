// Package pager implements the kernel half of the paper's contribution: the
// low-priority interrupt handler of Figure 2 that migrates, replicates, and
// collapses pages, together with the cost accounting behind Tables 5 and 6.
//
// A batch of hot pages (the directory collects several before interrupting)
// is processed as in Section 4: steps 3-5 run per page, one TLB flush covers
// the whole batch, then steps 7-8 run per page. Lock costs are simulated —
// page allocation and migration remapping contend on memlock, replication
// linkage takes only a page-level lock — so the contention effects the paper
// reports emerge from concurrent pager activity.
package pager

import (
	"ccnuma/internal/directory"
	"ccnuma/internal/kernel/alloc"
	"ccnuma/internal/kernel/klock"
	"ccnuma/internal/kernel/vm"
	"ccnuma/internal/mem"
	"ccnuma/internal/obs"
	"ccnuma/internal/policy"
	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
	"ccnuma/internal/topology"
)

// FlushFunc shoots down TLBs for the given pages. It returns the total wait
// seen by the initiating CPU (replacing the configured default); the machine
// charges each flushed CPU its local flush cost separately. When the
// TrackTLBHolders ablation is on, the machine flushes only CPUs whose TLB
// holds one of the pages, and the wait shrinks proportionally.
type FlushFunc func(now sim.Time, initiator mem.CPUID, pages []mem.GPage) sim.Time

// Pager is the migration/replication engine.
type Pager struct {
	cfg      topology.Config
	locks    *klock.Set
	alloc    *alloc.Allocator
	vm       *vm.VM
	counters *directory.Counters
	params   policy.Params

	// Flush is the machine's TLB-shootdown hook.
	Flush FlushFunc
	// LowWater is the per-node free-frame threshold below which the node is
	// considered under memory pressure (replication stops).
	LowWater int
	// Adaptive enables the adaptive-trigger extension (the paper leaves
	// "selecting the correct trigger value, statically or adaptively" as
	// future work): the trigger is raised when the last interval's pager
	// overhead exceeded a target fraction of machine time and lowered when
	// it was far below it.
	Adaptive bool
	// ReclaimCold enables the cold-replica reclamation extension: replicas
	// of pages with no recent sharing are collapsed at each reset interval,
	// bounding the replication space overhead (Section 7.2.3 reports the
	// kernel "preferentially reclaiming replicated pages").
	ReclaimCold bool
	// Deferral enables the graceful-degradation response to allocation
	// failure: instead of dropping an operation whose destination node had no
	// frame, it enters a bounded queue and retries with exponential backoff
	// on later pager interrupts (set from fault.Config.DeferFailedOps).
	Deferral bool
	// OverheadBudget, when positive, sheds whole hot-page batches at
	// interrupt-entry cost while the pager's accumulated overhead on this CPU
	// exceeds the given fraction of elapsed virtual time (set from
	// fault.Config.OverheadBudget).
	OverheadBudget float64

	// Obs, when enabled, receives the pager's typed events: hot-page
	// interrupts, policy decisions (with the counters that drove them), TLB
	// shootdowns, and cold-replica reclamation sweeps. Page-placement state
	// changes themselves are emitted by the VM.
	Obs *obs.Tracer

	// Actions is the Table-4 accounting.
	Actions policy.ActionStats

	intervalOverhead sim.Time
	// TriggerTrace records the trigger value at each interval boundary
	// (observability for the adaptive extension).
	TriggerTrace []uint16

	// Scratch buffers reused across handler invocations. The pager runs
	// inside single-threaded simulator events, so one set per Pager suffices;
	// each holder's slice is only read within the same invocation.
	ops        []pendingOp
	flushPages []mem.GPage
	nodesBuf   []mem.NodeID
	mappersBuf []mem.ProcID
	reclaimBuf []mem.GPage
	onePage    [1]mem.GPage

	// deferred is the bounded queue of operations awaiting retry after a
	// failed allocation; retryScratch is the per-batch due-list buffer.
	deferred     []deferredOp
	retryScratch []deferredOp
}

// New builds a pager. Flush must be set before the first hot batch arrives.
func New(cfg topology.Config, locks *klock.Set, a *alloc.Allocator, v *vm.VM,
	c *directory.Counters, params policy.Params) *Pager {
	return &Pager{
		cfg:      cfg,
		locks:    locks,
		alloc:    a,
		vm:       v,
		counters: c,
		params:   params,
		LowWater: 16,
	}
}

// Params returns the active policy parameters.
func (pg *Pager) Params() policy.Params { return pg.params }

type pendingOp struct {
	ref      directory.HotRef
	decision policy.Decision
	kind     stats.OpKind
	// newFrames holds the destination frame (migration) or one frame per
	// replica target node (replication replicates to every node whose miss
	// counter crossed the sharing threshold, under one interrupt and flush).
	newFrames []mem.PFN
	remapped  []mem.ProcID // procs to remap for RemapPage
	latency   sim.Time     // accumulated per-op latency for Table 5
}

// acquireOp extends the reusable ops buffer by one cleared slot, retaining
// the slot's newFrames capacity from earlier batches. Callers that decide
// the op needs no further processing pop it again with dropOp.
func (pg *Pager) acquireOp() *pendingOp {
	if n := len(pg.ops); n < cap(pg.ops) {
		pg.ops = pg.ops[:n+1]
	} else {
		pg.ops = append(pg.ops, pendingOp{})
	}
	op := &pg.ops[len(pg.ops)-1]
	*op = pendingOp{newFrames: op.newFrames[:0]}
	return op
}

// dropOp discards the most recently acquired op slot.
func (pg *Pager) dropOp() { pg.ops = pg.ops[:len(pg.ops)-1] }

// deferredOp is one deferral-queue entry: a hot reference whose migration or
// replication failed allocation and waits to retry.
type deferredOp struct {
	ref      directory.HotRef
	attempts int
	nextTry  sim.Time
}

// Graceful-degradation tuning (active only with Deferral): an operation
// retries at most maxDeferAttempts times with exponential backoff starting at
// deferBackoffBase, and at most maxDeferred operations wait at once.
const (
	maxDeferred      = 64
	maxDeferAttempts = 4
	deferBackoffBase = 250 * sim.Microsecond
)

// HandleBatch services a pager interrupt on cpu at virtual time now for the
// given hot pages. It performs all decisions and VM changes, charges
// simulated lock waits, and returns the total handler time, recording the
// per-function breakdown into bd.
func (pg *Pager) HandleBatch(now sim.Time, cpu mem.CPUID, batch []directory.HotRef, bd *stats.Breakdown) sim.Time {
	if len(batch) == 0 {
		return 0
	}
	k := pg.cfg.Kernel

	// Kernel-overhead budget: while the pager's accumulated share of this
	// CPU's time exceeds the budget, the whole batch is shed at
	// interrupt-entry cost. Counters clear, so the pages stay eligible and
	// re-trigger once the pager has caught up.
	if pg.OverheadBudget > 0 && pg.throttled(now, bd) {
		bd.Pager.Add(stats.FnIntrProc, k.InterruptEntry)
		for _, h := range batch {
			pg.counters.ClearPage(h.Page)
			pg.Actions.Record(policy.Decision{Action: policy.DoNothing, Reason: policy.ReasonThrottled}, false)
		}
		bd.Throttled += uint64(len(batch))
		if pg.Obs.On() {
			e := obs.NewEvent(obs.KindPolicyThrottled)
			e.At = now
			e.CPU = int(cpu)
			e.Node = int(pg.cfg.NodeOf(cpu))
			e.N = len(batch)
			pg.Obs.Emit(e)
		}
		pg.intervalOverhead += k.InterruptEntry
		return k.InterruptEntry
	}

	// Deferred operations whose backoff expired piggyback on this interrupt.
	retries := pg.takeDueRetries(now)
	total := len(batch) + len(retries)

	t := now
	start := now

	// Step 2: interrupt entry, amortized across the batch.
	t += k.InterruptEntry
	bd.Pager.Add(stats.FnIntrProc, k.InterruptEntry)
	intrShare := k.InterruptEntry / sim.Time(total)

	if pg.Obs.On() {
		e := obs.NewEvent(obs.KindHotPageInterrupt)
		e.At = now
		e.CPU = int(cpu)
		e.Node = int(pg.cfg.NodeOf(cpu))
		e.Trigger = pg.params.Trigger
		e.Sharing = pg.params.Sharing
		e.N = total
		pg.Obs.Emit(e)
	}

	pg.ops = pg.ops[:0]
	pg.flushPages = pg.flushPages[:0]

	for i := range retries {
		bd.Retried++
		t = pg.handleRef(retries[i].ref, &retries[i], t, intrShare, bd)
	}
	for _, h := range batch {
		t = pg.handleRef(h, nil, t, intrShare, bd)
	}

	// Step 6: one TLB flush for the whole batch.
	if len(pg.flushPages) > 0 {
		fw := k.TLBFlushWait
		if pg.Flush != nil {
			fw = pg.Flush(t, cpu, pg.flushPages)
		}
		t += fw
		pg.observeShootdown(t, cpu, len(pg.flushPages), fw)
		bd.Pager.Add(stats.FnTLBFlush, fw)
		if len(pg.ops) > 0 {
			share := fw / sim.Time(len(pg.ops))
			for i := range pg.ops {
				bd.Pager.AddOpStep(pg.ops[i].kind, stats.FnTLBFlush, share)
				pg.ops[i].latency += share
			}
		}
	}

	// Steps 7-8 per copy: copy the data, then final mapping updates.
	for i := range pg.ops {
		op := &pg.ops[i]
		acted := false
		copies := 0
		for _, f := range op.newFrames {
			cc := pg.cfg.CopyCost()
			t += cc
			bd.Pager.Add(stats.FnPageCopy, cc)
			bd.Pager.AddOpStep(op.kind, stats.FnPageCopy, cc)
			op.latency += cc

			var dt sim.Time
			var err error
			if op.decision.Action == policy.MigratePage {
				err = pg.vm.Migrate(op.ref.Page, f)
				dt = k.PolicyEndMigr
			} else {
				err = pg.vm.Replicate(op.ref.Page, f)
				dt = k.PolicyEndRepl
			}
			if err != nil {
				// The page changed state between decision and action (e.g.
				// a collapse raced in); release the frame.
				pg.alloc.Free(f)
				continue
			}
			acted = true
			copies++
			t += dt
			bd.Pager.Add(stats.FnPolicyEnd, dt)
			bd.Pager.AddOpStep(op.kind, stats.FnPolicyEnd, dt)
			op.latency += dt
		}
		if !acted {
			pg.Actions.Record(policy.Decision{Action: policy.DoNothing, Reason: policy.ReasonFrozen}, false)
			continue
		}
		pg.vm.Page(op.ref.Page).TransitUntil = t
		pg.Actions.Record(op.decision, false)
		// Table 5 reports per-page-moved latency: a multi-target
		// replication is recorded as one operation per copy.
		for c := 0; c < copies; c++ {
			bd.Pager.FinishOp(op.kind, op.latency/sim.Time(copies))
		}
	}

	pg.intervalOverhead += t - start
	return t - start
}

// handleRef runs steps 3-5 of Figure 2 for one hot reference at time t,
// appending to the batch's op and flush lists, and returns the advanced
// clock. def is non-nil when the reference is a deferred retry (the policy
// re-evaluates against current counters; a page that moved or cooled since
// the failure resolves as a cheap no-op).
func (pg *Pager) handleRef(h directory.HotRef, def *deferredOp, t, intrShare sim.Time, bd *stats.Breakdown) sim.Time {
	k := pg.cfg.Kernel
	op := pg.acquireOp()
	op.ref, op.latency = h, intrShare

	// Step 3: policy decision under the page lock.
	wait := pg.locks.PageLock(uint32(h.Page)).Acquire(t, k.PageLockHold)
	dt := wait + k.PolicyDecision
	t += dt
	bd.Pager.Add(stats.FnPolicyDecision, dt)
	op.latency += dt

	op.decision = pg.decide(h)
	if pg.Obs.On() {
		// Observe before ClearPage wipes the counters the branch read.
		policy.ObserveDecision(pg.Obs, t, int(h.CPU), int(pg.cfg.NodeOf(h.CPU)),
			int64(h.Page), pg.params, pg.counters.MissRow(h.Page),
			pg.counters.Writes(h.Page), pg.counters.GroupOf(h.CPU), op.decision)
	}
	switch op.decision.Action {
	case policy.DoNothing:
		pg.counters.ClearPage(h.Page)
		pg.Actions.Record(op.decision, false)
		pg.dropOp()
		return t
	case policy.RemapPage:
		node := pg.cfg.NodeOf(h.CPU)
		op.remapped = pg.staleMappers(h.Page, node)
		if len(op.remapped) == 0 {
			pg.Actions.Record(policy.Decision{Action: policy.DoNothing, Reason: policy.ReasonLocal}, false)
			pg.dropOp()
			return t
		}
		// Remap is cheap: pte updates plus the shared flush.
		for _, pid := range op.remapped {
			pg.vm.Remap(pid, h.Page, node)
		}
		dt = k.PageLockHold
		t += dt
		bd.Pager.Add(stats.FnLinksMapping, dt)
		op.latency += dt
		pg.flushPages = append(pg.flushPages, h.Page)
		pg.counters.ClearPage(h.Page)
		pg.Actions.Record(op.decision, false)
		pg.vm.Page(h.Page).TransitUntil = t
		pg.dropOp()
		return t
	case policy.MigratePage:
		op.kind = stats.OpMigrate
	case policy.ReplicatePage:
		op.kind = stats.OpReplicate
	}

	// Step 4: allocate the destination frames. The global free list is
	// protected by memlock. A replication allocates one frame on every
	// target node (the triggering node plus every node whose counter
	// crossed the sharing threshold).
	targets := pg.targetNodes(h, op.decision.Action)
	pg.counters.ClearPage(h.Page)
	wait = pg.locks.Memlock.Acquire(t, k.MemlockHold)
	failed := 0
	for _, n := range targets {
		f := pg.allocOn(n, op.decision.Action)
		dt = wait + k.PageAllocBase
		wait = 0 // charge the lock wait once
		t += dt
		bd.Pager.Add(stats.FnPageAlloc, dt)
		op.latency += dt
		bd.Pager.AddOpStep(op.kind, stats.FnPageAlloc, dt)
		if f == mem.NoFrame {
			failed++
			if !pg.Deferral {
				pg.Actions.Record(op.decision, true)
			}
			continue
		}
		op.newFrames = append(op.newFrames, f)
	}
	bd.Pager.AddOpStep(op.kind, stats.FnIntrProc, intrShare)
	bd.Pager.AddOpStep(op.kind, stats.FnPolicyDecision, k.PolicyDecision)
	if pg.Deferral && failed > 0 && len(op.newFrames) > 0 {
		// Partial success: the made copies proceed and the failed targets
		// count as No-Page — the page re-heats on the unserved nodes and
		// retriggers naturally, so deferring would double-serve it.
		for i := 0; i < failed; i++ {
			pg.Actions.Record(op.decision, true)
		}
	}
	if len(op.newFrames) == 0 {
		if pg.Deferral && failed > 0 {
			pg.deferOp(h, def, op.decision, t, bd)
		}
		pg.dropOp()
		return t
	}

	// Step 5: link the new pages and mark ptes transient. Migration
	// rewrites the physical-page hash table under memlock; replication
	// queues the replicas on the master under the page lock alone.
	if op.decision.Action == policy.MigratePage {
		wait = pg.locks.Memlock.Acquire(t, k.MemlockHold)
		dt = wait + k.LinkMapMigr
	} else {
		wait = pg.locks.PageLock(uint32(h.Page)).Acquire(t, k.PageLockHold)
		dt = wait + sim.Time(len(op.newFrames))*k.LinkMapRepl
	}
	t += dt
	bd.Pager.Add(stats.FnLinksMapping, dt)
	bd.Pager.AddOpStep(op.kind, stats.FnLinksMapping, dt)
	op.latency += dt

	pg.flushPages = append(pg.flushPages, h.Page)
	return t
}

// deferOp queues a fully failed operation for retry, or abandons it when its
// attempts or the queue's capacity are exhausted. Only an abandonment reaches
// the Table-4 accounting (as No-Page); a deferred operation is recorded when
// it finally resolves.
func (pg *Pager) deferOp(h directory.HotRef, def *deferredOp, decision policy.Decision, now sim.Time, bd *stats.Breakdown) {
	attempts := 1
	if def != nil {
		attempts = def.attempts + 1
	}
	if attempts >= maxDeferAttempts || (def == nil && len(pg.deferred) >= maxDeferred) {
		bd.Abandoned++
		pg.Actions.Record(decision, true)
		if pg.Obs.On() {
			e := obs.NewEvent(obs.KindOpAbandoned)
			e.At = now
			e.CPU = int(h.CPU)
			e.Node = int(pg.cfg.NodeOf(h.CPU))
			e.Page = int64(h.Page)
			e.N = attempts
			pg.Obs.Emit(e)
		}
		return
	}
	pg.deferred = append(pg.deferred, deferredOp{
		ref:      h,
		attempts: attempts,
		nextTry:  now + deferBackoffBase<<(attempts-1),
	})
	bd.Deferred++
	if pg.Obs.On() {
		e := obs.NewEvent(obs.KindOpDeferred)
		e.At = now
		e.CPU = int(h.CPU)
		e.Node = int(pg.cfg.NodeOf(h.CPU))
		e.Page = int64(h.Page)
		e.N = attempts
		pg.Obs.Emit(e)
	}
}

// takeDueRetries removes and returns the deferred operations whose backoff
// expired by now. The returned slice is the pager's scratch buffer, valid
// until the next batch.
func (pg *Pager) takeDueRetries(now sim.Time) []deferredOp {
	if !pg.Deferral || len(pg.deferred) == 0 {
		return nil
	}
	due := pg.retryScratch[:0]
	keep := pg.deferred[:0]
	for _, d := range pg.deferred {
		if d.nextTry <= now {
			due = append(due, d)
		} else {
			keep = append(keep, d)
		}
	}
	pg.deferred = keep
	pg.retryScratch = due
	return due
}

// throttled reports whether the overhead budget is currently exceeded on the
// CPU owning bd.
func (pg *Pager) throttled(now sim.Time, bd *stats.Breakdown) bool {
	return now > 0 && float64(bd.Pager.Total()) > pg.OverheadBudget*float64(now)
}

// observeShootdown emits the TLBShootdown event: n pages flushed, with the
// wait the initiating CPU paid.
func (pg *Pager) observeShootdown(at sim.Time, cpu mem.CPUID, n int, wait sim.Time) {
	if !pg.Obs.On() {
		return
	}
	e := obs.NewEvent(obs.KindTLBShootdown)
	e.At = at
	e.CPU = int(cpu)
	e.Node = int(pg.cfg.NodeOf(cpu))
	e.N = n
	e.Dur = wait
	pg.Obs.Emit(e)
}

// targetNodes lists the destination nodes for an action: the triggering
// CPU's node for a migration; for a replication, additionally every node
// with a CPU whose miss counter crossed the sharing threshold and that has
// no copy yet.
func (pg *Pager) targetNodes(h directory.HotRef, a policy.Action) []mem.NodeID {
	home := pg.cfg.NodeOf(h.CPU)
	nodes := append(pg.nodesBuf[:0], home)
	if a == policy.MigratePage {
		pg.nodesBuf = nodes
		return nodes
	}
	row := pg.counters.MissRow(h.Page)
	for c := 0; c < pg.cfg.TotalCPUs(); c++ {
		n := row[pg.counters.GroupOf(mem.CPUID(c))]
		cn := pg.cfg.NodeOf(mem.CPUID(c))
		if cn == home || n < pg.params.Sharing {
			continue
		}
		if pg.vm.HasReplicaOn(h.Page, cn) {
			continue
		}
		dup := false
		for _, x := range nodes {
			if x == cn {
				dup = true
			}
		}
		if !dup {
			nodes = append(nodes, cn)
		}
	}
	pg.nodesBuf = nodes
	return nodes
}

// decide computes the policy decision for one hot reference.
func (pg *Pager) decide(h directory.HotRef) policy.Decision {
	node := pg.cfg.NodeOf(h.CPU)
	pi := pg.vm.Page(h.Page)
	st := policy.PageState{
		Replicated: len(pi.Replicas) > 0,
		MigCount:   pi.MigCount,
		Wired:      pi.Flags&vm.Wired != 0,
		Pressure:   pg.alloc.Pressure(node, pg.LowWater),
	}
	if pg.vm.HasReplicaOn(h.Page, node) {
		if len(pg.staleMappers(h.Page, node)) > 0 {
			st.HasLocalCopy = true
		} else {
			st.Local = true
		}
	}
	return policy.Decide(pg.params, pg.counters.MissRow(h.Page), pg.counters.Writes(h.Page), pg.counters.GroupOf(h.CPU), st)
}

// staleMappers lists processes running on node whose pte for page points at
// a copy on some other node.
func (pg *Pager) staleMappers(page mem.GPage, node mem.NodeID) []mem.ProcID {
	local := pg.vm.NearestCopy(page, node)
	if pg.cfg.NodeOfFrame(local) != node {
		return nil
	}
	out := pg.mappersBuf[:0]
	for _, pid := range pg.vm.Page(page).Mappers {
		if pg.vm.Locate(pid) == node && pg.vm.PTE(pid, page).PFN != local {
			out = append(out, pid)
		}
	}
	pg.mappersBuf = out
	return out
}

// allocOn allocates strictly on node; for migrations under memory pressure
// it first tries to reclaim a replica on the node (the paper's preferential
// reclamation of replicated pages).
func (pg *Pager) allocOn(node mem.NodeID, a policy.Action) mem.PFN {
	purpose := alloc.Base
	if a == policy.ReplicatePage {
		purpose = alloc.Replica
	}
	f := pg.alloc.AllocOn(node, purpose)
	if f == mem.NoFrame && a == policy.MigratePage {
		if _, ok := pg.vm.ReclaimReplicaOn(node); ok {
			f = pg.alloc.AllocOn(node, purpose)
		}
	}
	return f
}

// collapseTarget picks the node whose copy survives a collapse initiated by
// cpu: normally cpu's own node, but when that node's memory is drained the
// master's node — keeping the survivor on an offline node would defeat the
// drain's eviction sweep.
func (pg *Pager) collapseTarget(cpu mem.CPUID, p mem.GPage) mem.NodeID {
	n := pg.cfg.NodeOf(cpu)
	if pg.alloc.Offline(n) {
		return pg.vm.MasterNode(p)
	}
	return n
}

// CollapseWrite services a write trap to a replicated page (the pfault
// path): replicas are collapsed to the copy nearest the writer, TLBs are
// flushed, and the write is allowed to proceed. It returns the handler time
// charged to the faulting CPU.
func (pg *Pager) CollapseWrite(now sim.Time, cpu mem.CPUID, page mem.GPage, bd *stats.Breakdown) sim.Time {
	k := pg.cfg.Kernel
	t := now

	wait := pg.locks.PageLock(uint32(page)).Acquire(t, k.PageLockHold)
	dt := wait + k.CollapseBase
	t += dt
	bd.Pager.Add(stats.FnPageFault, dt)

	pg.vm.Collapse(page, pg.collapseTarget(cpu, page))

	fw := k.TLBFlushWait
	if pg.Flush != nil {
		pg.onePage[0] = page
		fw = pg.Flush(t, cpu, pg.onePage[:])
	}
	t += fw
	pg.observeShootdown(t, cpu, 1, fw)
	bd.Pager.Add(stats.FnTLBFlush, fw)

	pg.vm.Page(page).TransitUntil = t
	pg.Actions.Collapses++
	return t - now
}

// ResetInterval performs the periodic counter reset (Table 1): directory
// miss and write counters and the per-page migrate counters all zero. With
// the adaptive extension on, the trigger threshold is first adjusted from
// the interval's overhead.
func (pg *Pager) ResetInterval() {
	if pg.Adaptive {
		pg.adaptTrigger()
	}
	pg.counters.Reset()
	pg.vm.ResetMigCounts()
	pg.intervalOverhead = 0
}

// adaptTrigger moves the trigger threshold toward an overhead target: pager
// time above ~8% of interval machine time raises it (act less), below ~1.5%
// lowers it (act more aggressively while moves are cheap).
func (pg *Pager) adaptTrigger() {
	machineTime := float64(pg.params.ResetInterval) * float64(pg.cfg.TotalCPUs())
	frac := float64(pg.intervalOverhead) / machineTime
	t := pg.params.Trigger
	switch {
	case frac > 0.08:
		t = t * 3 / 2
	case frac < 0.015:
		t = t * 2 / 3
	}
	if t < 16 {
		t = 16
	}
	if t > 512 {
		t = 512
	}
	pg.params = pg.params.WithTrigger(t)
	pg.counters.SetTrigger(t)
	pg.TriggerTrace = append(pg.TriggerTrace, t)
}

// ReclaimColdReplicas collapses every replicated page whose miss counters
// this interval stayed below the sharing threshold on all processors: its
// sharers went quiet, so the copies only cost memory. Called at the reset
// boundary, before counters clear. Returns the kernel time consumed.
func (pg *Pager) ReclaimColdReplicas(now sim.Time, cpu mem.CPUID, bd *stats.Breakdown) sim.Time {
	k := pg.cfg.Kernel
	t := now
	pages := pg.reclaimBuf[:0]
	for p := 0; p < pg.vm.Pages(); p++ {
		pi := pg.vm.Page(mem.GPage(p))
		if len(pi.Replicas) == 0 {
			continue
		}
		warm := false
		for _, n := range pg.counters.MissRow(mem.GPage(p)) {
			if n >= pg.params.Sharing {
				warm = true
				break
			}
		}
		if !warm {
			pages = append(pages, mem.GPage(p))
		}
	}
	pg.reclaimBuf = pages
	if len(pages) == 0 {
		return 0
	}
	if pg.Obs.On() {
		e := obs.NewEvent(obs.KindReplicaReclaimed)
		e.At = now
		e.CPU = int(cpu)
		e.Node = int(pg.cfg.NodeOf(cpu))
		e.Sharing = pg.params.Sharing
		e.N = len(pages)
		pg.Obs.Emit(e)
	}
	for _, p := range pages {
		wait := pg.locks.PageLock(uint32(p)).Acquire(t, k.PageLockHold)
		dt := wait + k.CollapseBase
		t += dt
		bd.Pager.Add(stats.FnPolicyEnd, dt)
		pg.vm.Collapse(p, pg.collapseTarget(cpu, p))
		pg.vm.Page(p).TransitUntil = t
	}
	fw := k.TLBFlushWait
	if pg.Flush != nil {
		fw = pg.Flush(t, cpu, pages)
	}
	t += fw
	pg.observeShootdown(t, cpu, len(pages), fw)
	bd.Pager.Add(stats.FnTLBFlush, fw)
	pg.intervalOverhead += t - now
	return t - now
}

// DrainNode evicts every replica resident on node as part of a memory drain:
// each is collapsed away under its page lock, then one TLB flush covers the
// whole sweep. Master copies stay resident (the allocator keeps allocated
// frames alive through a drain); only redundant copies are pushed off the
// node. Returns the kernel time consumed and the number of replicas evicted.
// The caller must have taken the node offline in the allocator first, so no
// new replica lands on the node between the sweep and the flush.
func (pg *Pager) DrainNode(now sim.Time, cpu mem.CPUID, node mem.NodeID, bd *stats.Breakdown) (sim.Time, int) {
	k := pg.cfg.Kernel
	t := now
	pages := pg.reclaimBuf[:0]
	for {
		p, ok := pg.vm.ReclaimReplicaOn(node)
		if !ok {
			break
		}
		wait := pg.locks.PageLock(uint32(p)).Acquire(t, k.PageLockHold)
		dt := wait + k.CollapseBase
		t += dt
		bd.Pager.Add(stats.FnPolicyEnd, dt)
		pg.vm.Page(p).TransitUntil = t
		pages = append(pages, p)
	}
	pg.reclaimBuf = pages
	if len(pages) == 0 {
		return 0, 0
	}
	fw := k.TLBFlushWait
	if pg.Flush != nil {
		fw = pg.Flush(t, cpu, pages)
	}
	t += fw
	pg.observeShootdown(t, cpu, len(pages), fw)
	bd.Pager.Add(stats.FnTLBFlush, fw)
	pg.intervalOverhead += t - now
	return t - now, len(pages)
}
