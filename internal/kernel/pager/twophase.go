package pager

import (
	"ccnuma/internal/mem"
	"ccnuma/internal/policy"
	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
)

// Two-phase copy protocol.
//
// Steps 7-8 of Figure 2 move page data and then link the new frame into the
// VM. Those two halves touch state owned by two different nodes: the copy
// charges work at the *destination* node (the frame being filled), while the
// mapping update mutates the master page's metadata, which lives with the
// page's *home* node. Rather than letting one handler reach across both, the
// work is split into an explicit message exchange — a prepare phase
// addressed to the destination and a commit phase addressed to the home —
// with phaseMsg as the wire format. HandleBatch drives both phases
// back-to-back in the original order, so the cost accounting is
// byte-identical to the fused loop it replaced.
//
// phaseMsg names the pending op by index, not pointer: pg.ops is a reusable
// buffer that acquireOp may reallocate, so a pointer captured at decision
// time could dangle by the time the phase runs.
type phaseMsg struct {
	opIdx int
	frame mem.PFN
}

// prepareCopy is phase one, executed at the destination node: charge the
// page-copy cost for filling m.frame. It never touches master metadata.
func (pg *Pager) prepareCopy(m phaseMsg, t sim.Time, bd *stats.Breakdown) sim.Time {
	op := &pg.ops[m.opIdx]
	cc := pg.cfg.CopyCost()
	t += cc
	bd.Pager.Add(stats.FnPageCopy, cc)
	bd.Pager.AddOpStep(op.kind, stats.FnPageCopy, cc)
	op.latency += cc
	return t
}

// commitCopy is phase two, executed at the master page's home node: link the
// prepared frame into the VM (migration re-points the master, replication
// adds a replica) and charge the policy-end bookkeeping. A page whose state
// changed between decision and commit (e.g. a collapse raced in) rejects the
// commit; the prepared frame is returned to its node's allocator and the
// phase reports ok=false.
func (pg *Pager) commitCopy(m phaseMsg, t sim.Time, bd *stats.Breakdown) (sim.Time, bool) {
	op := &pg.ops[m.opIdx]
	k := pg.cfg.Kernel

	var dt sim.Time
	var err error
	if op.decision.Action == policy.MigratePage {
		err = pg.vm.Migrate(op.ref.Page, m.frame)
		dt = k.PolicyEndMigr
	} else {
		err = pg.vm.Replicate(op.ref.Page, m.frame)
		dt = k.PolicyEndRepl
	}
	if err != nil {
		pg.alloc.Free(m.frame)
		return t, false
	}
	t += dt
	bd.Pager.Add(stats.FnPolicyEnd, dt)
	bd.Pager.AddOpStep(op.kind, stats.FnPolicyEnd, dt)
	op.latency += dt
	return t, true
}
