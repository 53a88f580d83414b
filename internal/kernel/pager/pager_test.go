package pager

import (
	"testing"

	"ccnuma/internal/cache"
	"ccnuma/internal/directory"
	"ccnuma/internal/kernel/alloc"
	"ccnuma/internal/kernel/klock"
	"ccnuma/internal/kernel/vm"
	"ccnuma/internal/mem"
	"ccnuma/internal/policy"
	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
	"ccnuma/internal/topology"
)

const tPages = 64

type fixture struct {
	cfg      topology.Config
	alloc    *alloc.Allocator
	vmm      *vm.VM
	counters *directory.Counters
	pg       *Pager
	bd       stats.Breakdown
	flushes  int
}

func newFixture(t *testing.T, params policy.Params) *fixture {
	t.Helper()
	cfg := topology.CCNUMA()
	cfg.MemoryPerNode = 64 * 4096 // 64 frames per node
	f := &fixture{cfg: cfg}
	f.alloc = alloc.New(cfg.Nodes, cfg.FramesPerNode())
	val := cache.NewValidity(tPages, 1)
	f.vmm = vm.New(tPages, f.alloc, val, vm.FirstTouch)
	f.counters = directory.NewCounters(tPages, cfg.TotalCPUs(), params.Trigger, 4, 1, nil)
	f.pg = New(cfg, klock.NewSet(16), f.alloc, f.vmm, f.counters, params)
	f.pg.Flush = func(now sim.Time, initiator mem.CPUID, pages []mem.GPage) sim.Time {
		f.flushes++
		return cfg.Kernel.TLBFlushWait
	}
	return f
}

// touch maps a page for a fresh process from the given node.
func (f *fixture) touch(t *testing.T, page mem.GPage, node mem.NodeID) mem.ProcID {
	t.Helper()
	p := f.vmm.AddProcess()
	f.vmm.Touch(p, page, node)
	return p
}

// heat records n misses from cpu to page (all remote-armed).
func (f *fixture) heat(page mem.GPage, cpu mem.CPUID, n int, write bool) {
	for i := 0; i < n; i++ {
		f.counters.Record(page, cpu, write, true)
	}
}

func TestMigrationOfUnsharedHotPage(t *testing.T) {
	f := newFixture(t, policy.Base())
	f.touch(t, 3, 0) // master on node 0
	f.heat(3, 5, 200, false)

	dt := f.pg.HandleBatch(0, 5, []directory.HotRef{{Page: 3, CPU: 5}}, &f.bd)
	if dt <= 0 {
		t.Fatal("no handler time charged")
	}
	if f.vmm.MasterNode(3) != f.cfg.NodeOf(5) {
		t.Fatalf("page not migrated to node %d", f.cfg.NodeOf(5))
	}
	if f.pg.Actions.Migrations != 1 {
		t.Fatalf("actions = %+v", f.pg.Actions)
	}
	if f.flushes != 1 {
		t.Fatalf("flushes = %d", f.flushes)
	}
	if f.counters.Miss(3, 5) != 0 {
		t.Fatal("counters not cleared after action")
	}
	if err := f.vmm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationCoversSharingNodes(t *testing.T) {
	f := newFixture(t, policy.Base())
	f.touch(t, 3, 0)
	// Three remote CPUs read the page hard; read-only (no writes).
	f.heat(3, 2, 200, false)
	f.heat(3, 4, 100, false)
	f.heat(3, 6, 100, false)

	f.pg.HandleBatch(0, 2, []directory.HotRef{{Page: 3, CPU: 2}}, &f.bd)
	if f.pg.Actions.Replicas != 1 {
		t.Fatalf("actions = %+v", f.pg.Actions)
	}
	for _, n := range []mem.NodeID{2, 4, 6} {
		if !f.vmm.HasReplicaOn(3, n) {
			t.Errorf("no replica on sharing node %d", n)
		}
	}
	if f.vmm.HasReplicaOn(3, 7) {
		t.Error("replica on a node that never missed")
	}
	if err := f.vmm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSharedPageNotReplicated(t *testing.T) {
	f := newFixture(t, policy.Base())
	f.touch(t, 3, 0)
	f.heat(3, 2, 200, true) // writes exceed the write threshold
	f.heat(3, 4, 100, false)

	f.pg.HandleBatch(0, 2, []directory.HotRef{{Page: 3, CPU: 2}}, &f.bd)
	if f.pg.Actions.Replicas != 0 || f.pg.Actions.Migrations != 0 {
		t.Fatalf("write-shared page moved: %+v", f.pg.Actions)
	}
	if f.pg.Actions.ByReason[policy.ReasonWriteShared] != 1 {
		t.Fatalf("reason accounting: %+v", f.pg.Actions.ByReason)
	}
}

func TestNoPageWhenNodeFull(t *testing.T) {
	f := newFixture(t, policy.Base())
	f.touch(t, 3, 0)
	// Exhaust node 5.
	for f.alloc.FreeOn(5) > 0 {
		f.alloc.AllocOn(5, alloc.Base)
	}
	f.heat(3, 5, 200, false)
	f.pg.HandleBatch(0, 5, []directory.HotRef{{Page: 3, CPU: 5}}, &f.bd)
	if f.pg.Actions.NoPage != 1 {
		t.Fatalf("actions = %+v", f.pg.Actions)
	}
	if f.vmm.MasterNode(3) != 0 {
		t.Fatal("page moved despite allocation failure")
	}
}

func TestMigrationReclaimsReplicaUnderPressure(t *testing.T) {
	f := newFixture(t, policy.Base())
	f.touch(t, 3, 0)
	// Page 9 has a replica on node 5; node 5 is otherwise full.
	f.touch(t, 9, 0)
	rep := f.alloc.AllocOn(5, alloc.Replica)
	if err := f.vmm.Replicate(9, rep); err != nil {
		t.Fatal(err)
	}
	for f.alloc.FreeOn(5) > 0 {
		f.alloc.AllocOn(5, alloc.Base)
	}
	f.heat(3, 5, 200, false)
	f.pg.HandleBatch(0, 5, []directory.HotRef{{Page: 3, CPU: 5}}, &f.bd)
	if f.pg.Actions.Migrations != 1 {
		t.Fatalf("migration did not reclaim a replica: %+v", f.pg.Actions)
	}
	if f.vmm.HasReplicaOn(9, 5) {
		t.Fatal("replica survived reclamation")
	}
}

func TestWiredPageUntouched(t *testing.T) {
	f := newFixture(t, policy.Base())
	f.vmm.Wire(7, 0)
	f.heat(7, 3, 200, false)
	f.pg.HandleBatch(0, 3, []directory.HotRef{{Page: 7, CPU: 3}}, &f.bd)
	if f.pg.Actions.ByReason[policy.ReasonWired] != 1 {
		t.Fatalf("wired page not skipped: %+v", f.pg.Actions)
	}
}

func TestRemapPicksUpExistingReplica(t *testing.T) {
	f := newFixture(t, policy.Base())
	owner := f.touch(t, 3, 0)
	_ = owner
	// A process on node 5 maps the master...
	p5 := f.touch(t, 3, 5)
	// ...then a replica appears on node 5 (without remapping p5's pte, as
	// before the fix the paper describes for Splash).
	rep := f.alloc.AllocOn(5, alloc.Replica)
	if err := f.vmm.Replicate(3, rep); err != nil {
		t.Fatal(err)
	}
	// Force the stale mapping: point p5 back at the master.
	f.vmm.Remap(p5, 3, 0)
	f.vmm.Locate = func(pid mem.ProcID) mem.NodeID {
		if pid == p5 {
			return 5
		}
		return 0
	}
	f.heat(3, 5, 200, false)
	f.pg.HandleBatch(0, 5, []directory.HotRef{{Page: 3, CPU: 5}}, &f.bd)
	if f.pg.Actions.Remaps != 1 {
		t.Fatalf("no remap action: %+v", f.pg.Actions)
	}
	if f.vmm.PTE(p5, 3).PFN != rep {
		t.Fatal("pte still points at the remote master")
	}
}

func TestBatchSingleFlush(t *testing.T) {
	f := newFixture(t, policy.Base())
	var batch []directory.HotRef
	for i := 0; i < 4; i++ {
		pg := mem.GPage(10 + i)
		f.touch(t, pg, 0)
		f.heat(pg, 5, 200, false)
		batch = append(batch, directory.HotRef{Page: pg, CPU: 5})
	}
	f.pg.HandleBatch(0, 5, batch, &f.bd)
	if f.flushes != 1 {
		t.Fatalf("flushes = %d, want 1 for the whole batch", f.flushes)
	}
	if f.pg.Actions.Migrations != 4 {
		t.Fatalf("actions = %+v", f.pg.Actions)
	}
}

func TestCollapseWrite(t *testing.T) {
	f := newFixture(t, policy.Base())
	f.touch(t, 3, 0)
	rep := f.alloc.AllocOn(5, alloc.Replica)
	if err := f.vmm.Replicate(3, rep); err != nil {
		t.Fatal(err)
	}
	dt := f.pg.CollapseWrite(0, 5, 3, &f.bd)
	if dt <= 0 {
		t.Fatal("no collapse time charged")
	}
	if len(f.vmm.Page(3).Replicas) != 0 {
		t.Fatal("replicas survive collapse")
	}
	if f.vmm.MasterNode(3) != 5 {
		t.Fatal("collapse should keep the writer's copy")
	}
	if f.pg.Actions.Collapses != 1 {
		t.Fatalf("collapse not counted")
	}
	if f.flushes != 1 {
		t.Fatal("collapse must flush TLBs")
	}
}

func TestTable5LatencyAccounting(t *testing.T) {
	f := newFixture(t, policy.Base())
	f.touch(t, 3, 0)
	f.heat(3, 5, 200, false)
	f.pg.HandleBatch(0, 5, []directory.HotRef{{Page: 3, CPU: 5}}, &f.bd)

	ol := f.bd.Pager.OpLatency[stats.OpMigrate]
	if ol.Count != 1 {
		t.Fatalf("op count = %d", ol.Count)
	}
	// Total latency must equal the sum of the per-step latencies.
	var sum sim.Time
	for _, s := range ol.Step {
		sum += s
	}
	if sum != ol.Total {
		t.Fatalf("step sum %v != total %v", sum, ol.Total)
	}
	// And the uncontended migration should land in the Table-5 band once
	// scaled back to paper-equivalent microseconds.
	us := ol.MeanTotal() / f.cfg.CostScale
	if us < 250 || us > 700 {
		t.Fatalf("paper-equivalent migration latency = %.1fus, want 250-700", us)
	}
}

func TestTable6OverheadSums(t *testing.T) {
	f := newFixture(t, policy.Base())
	f.touch(t, 3, 0)
	f.heat(3, 5, 200, false)
	f.pg.HandleBatch(0, 5, []directory.HotRef{{Page: 3, CPU: 5}}, &f.bd)
	total := f.bd.Pager.Total()
	if total <= 0 {
		t.Fatal("no overhead recorded")
	}
	var pctSum float64
	for fn := 0; fn < stats.NumPagerFuncs; fn++ {
		pctSum += f.bd.Pager.Percent(stats.PagerFunc(fn))
	}
	if pctSum < 99.9 || pctSum > 100.1 {
		t.Fatalf("overhead percentages sum to %v", pctSum)
	}
}

func TestResetIntervalClearsState(t *testing.T) {
	f := newFixture(t, policy.Base())
	f.touch(t, 3, 0)
	f.heat(3, 5, 50, true)
	f.vmm.Page(3).MigCount = 2
	f.pg.ResetInterval()
	if f.counters.Miss(3, 5) != 0 || f.counters.Writes(3) != 0 {
		t.Fatal("counters survive reset")
	}
	if f.vmm.Page(3).MigCount != 0 {
		t.Fatal("migrate counter survives reset")
	}
}

func TestMigrationOnlyPolicyIgnoresShared(t *testing.T) {
	f := newFixture(t, policy.Base().MigrationOnly())
	f.touch(t, 3, 0)
	f.heat(3, 2, 200, false)
	f.heat(3, 4, 100, false)
	f.pg.HandleBatch(0, 2, []directory.HotRef{{Page: 3, CPU: 2}}, &f.bd)
	if f.pg.Actions.Replicas != 0 {
		t.Fatal("migration-only policy replicated")
	}
	if f.pg.Actions.ByReason[policy.ReasonDisabled] != 1 {
		t.Fatalf("reason accounting: %+v", f.pg.Actions.ByReason)
	}
}
