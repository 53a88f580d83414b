package main

import (
	"fmt"
	"time"

	"ccnuma/internal/cache"
	"ccnuma/internal/core"
	"ccnuma/internal/directory"
	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
	"ccnuma/internal/tlb"
	"ccnuma/internal/topology"
	"ccnuma/internal/tracesim"
	"ccnuma/internal/workload"
)

const (
	// replaySeed and replayScale fix the replayed streams, so every count
	// the replay reports repeats exactly from run to run.
	replaySeed  = 101
	replayScale = fullsysScale
	// replaySteps is how many generator steps each workload's stream holds.
	replaySteps = 1 << 21
	// batch is how many calls one timing covers: time.Now costs about as
	// much as one cache access, so single calls cannot be timed.
	batch = 4096
	// replayMissGap spaces the replayed L2 misses in simulated time.
	replayMissGap = 50 * sim.Nanosecond
)

// ref is one recorded memory reference.
type ref struct {
	line mem.GLine
	cpu  uint16
	asid uint16
	kind mem.AccessKind
}

// replayTotals accumulates the layer replay over all workloads.
type replayTotals struct {
	genCalls                      uint64
	genTime                       time.Duration
	accesses, l2Lookups, l2Misses uint64
	cacheTime                     time.Duration
	lookups, tlbMisses            uint64
	tlbTime                       time.Duration
	dirCalls, remote, hotBatches  uint64
	dirTime                       time.Duration
	records, tracesimPolicies     uint64
	tracesimTime                  time.Duration
}

// recordStream steps every process generator of spec round-robin, a
// quantum of batch steps at a time, through Gen.Next until replaySteps
// steps were taken, and returns the memory references among them.
func recordStream(spec *workload.Spec, cpus int, t *replayTotals) []ref {
	gens := make([]workload.Generator, len(spec.Procs))
	onCPU := make([]mem.CPUID, len(spec.Procs))
	for i := range spec.Procs {
		gens[i] = spec.Procs[i].Gen
		gens[i].Reset(replaySeed + uint64(i))
		onCPU[i] = mem.CPUID(i % cpus)
		if pin := spec.Procs[i].Pin; pin >= 0 {
			onCPU[i] = pin % mem.CPUID(cpus)
		}
	}
	refs := make([]ref, 0, replaySteps)
	var steps [batch]workload.Step
	respawn := uint64(len(gens))
	for taken := 0; taken < replaySteps; {
		for i, g := range gens {
			cpu := onCPU[i]
			t0 := time.Now()
			for k := range steps {
				steps[k] = g.Next(cpu)
			}
			t.genTime += time.Since(t0)
			t.genCalls += batch
			taken += batch
			for _, st := range steps {
				switch st.Kind {
				case workload.StepAccess:
					refs = append(refs, ref{line: st.Page.Line(int(st.Line) % mem.LinesPerPage),
						cpu: uint16(cpu), asid: uint16(i), kind: st.Access})
				case workload.StepExit:
					// The machine respawns a churning process with a fresh seed.
					respawn++
					g.Reset(replaySeed + respawn)
				}
			}
		}
	}
	return refs
}

// replayWorkload replays one paper workload's stream through the cache,
// TLB and directory layers.
func replayWorkload(wl string, t *replayTotals) error {
	build, err := workload.ByName(wl)
	if err != nil {
		return err
	}
	spec := build(replayScale, replaySeed)
	cfg := topology.CCNUMA()
	if spec.Nodes > 0 {
		cfg.Nodes = spec.Nodes
	}
	cpus := cfg.TotalCPUs()
	refs := recordStream(spec, cpus, t)
	home := func(l mem.GLine) mem.NodeID { return mem.NodeID(int(l.Page()) % cfg.Nodes) }

	// Caches: every page is homed round-robin up front, as first touch would
	// spread a machine's pages.
	val := cache.NewValidity(spec.Pages, cfg.Nodes)
	for p := 0; p < spec.Pages; p++ {
		val.Assign(mem.GPage(p), mem.NodeID(p%cfg.Nodes))
	}
	hier := make([]*cache.Hierarchy, cpus)
	tlbs := make([]*tlb.TLB, cpus)
	for c := range hier {
		hier[c] = cache.NewHierarchy(c, cfg.L1Size, cfg.L1Assoc, cfg.L2Size, cfg.L2Assoc, val)
		tlbs[c] = tlb.New(cfg.TLBEntries, cfg.TLBAssoc)
	}
	levels := make([]cache.Level, len(refs))
	for lo := 0; lo < len(refs); lo += batch {
		hi := min(lo+batch, len(refs))
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			levels[i] = hier[refs[i].cpu].Access(refs[i].line, refs[i].kind)
		}
		t.cacheTime += time.Since(t0)
	}
	var misses []int
	for i, lv := range levels {
		t.accesses++
		if lv != cache.HitL1 {
			t.l2Lookups++
		}
		if lv == cache.Miss {
			t.l2Misses++
			misses = append(misses, i)
		}
	}

	// TLBs: a miss refills the entry, as the machine's software reload does.
	for lo := 0; lo < len(refs); lo += batch {
		hi := min(lo+batch, len(refs))
		var missed uint64
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			r := &refs[i]
			asid, page := mem.ProcID(r.asid), r.line.Page()
			if _, _, ok := tlbs[r.cpu].Lookup(asid, page); !ok {
				tlbs[r.cpu].Insert(asid, page, mem.PFN(page), false)
				missed++
			}
		}
		t.tlbTime += time.Since(t0)
		t.tlbMisses += missed
		t.lookups += uint64(hi - lo)
	}

	// Directory: every L2 miss goes through the memory system and feeds the
	// policy's miss counters, which batch hot pages for the pager.
	ms := directory.NewMemSystem(cfg)
	ctr := directory.NewCounters(spec.Pages, cpus, spec.Trigger, cfg.PagesPerInterrupt, 1,
		func([]directory.HotRef) { t.hotBatches++ })
	for lo := 0; lo < len(misses); lo += batch {
		hi := min(lo+batch, len(misses))
		var remote uint64
		t0 := time.Now()
		for _, i := range misses[lo:hi] {
			r := &refs[i]
			cpu := mem.CPUID(r.cpu)
			_, rem := ms.Access(sim.Time(i)*replayMissGap, cpu, home(r.line), r.kind)
			ctr.Record(r.line.Page(), cpu, r.kind.IsWrite(), rem)
			if rem {
				remote++
			}
		}
		t.dirTime += time.Since(t0)
		t.remote += remote
		t.dirCalls += uint64(hi - lo)
	}
	return nil
}

// replayTracesim runs every Figure-6 policy over a recorded engineering
// miss trace, reps times.
func replayTracesim(t *replayTotals, reps int) error {
	spec := workload.Engineering(replayScale, replaySeed)
	sys, err := core.NewSystem(spec, core.Options{Seed: replaySeed, CollectTrace: true})
	if err != nil {
		return err
	}
	res, err := sys.Run()
	if err != nil {
		return err
	}
	tr := res.Trace.UserOnly()
	cfg := tracesim.DefaultConfig(topology.CCNUMA().Nodes)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		outs := tracesim.SimulateAll(tr, cfg)
		t.tracesimTime += time.Since(t0)
		t.records += uint64(tr.Len())
		t.tracesimPolicies += uint64(tr.Len()) * uint64(len(outs))
	}
	return nil
}

// replayLayers records each fullsys workload's reference stream and replays
// it through the layers' public functions, reporting each layer's cost per
// call and its deterministic counts.
func replayLayers(tr *tracer, o *outcome) error {
	var t replayTotals
	sp := tr.begin("replay", "replay", 0, 0)
	for _, wl := range workload.Names() {
		ws := tr.begin("replay "+wl, "replay", sp, 0)
		if err := replayWorkload(wl, &t); err != nil {
			return fmt.Errorf("replay %s: %w", wl, err)
		}
		tr.end(ws)
	}
	ts := tr.begin("replay tracesim", "tracesim", sp, 0)
	if err := replayTracesim(&t, 3); err != nil {
		return fmt.Errorf("replay tracesim: %w", err)
	}
	tr.end(ts)
	tr.end(sp)

	ns := func(d time.Duration, n uint64) float64 { return float64(d.Nanoseconds()) / float64(n) }
	o.set("workload.ns_per_step", ns(t.genTime, t.genCalls), "ns")
	o.set("cache.ns_per_access", ns(t.cacheTime, t.accesses), "ns")
	o.set("cache.l2_miss_ratio", float64(t.l2Misses)/float64(t.l2Lookups), "ratio")
	o.set("tlb.ns_per_lookup", ns(t.tlbTime, t.lookups), "ns")
	o.set("tlb.miss_ratio", float64(t.tlbMisses)/float64(t.lookups), "ratio")
	o.set("directory.ns_per_access", ns(t.dirTime, t.dirCalls), "ns")
	o.set("directory.remote_fraction", float64(t.remote)/float64(t.dirCalls), "ratio")
	o.set("directory.hot_batches", float64(t.hotBatches), "count")
	o.set("tracesim.ns_per_record", ns(t.tracesimTime, t.tracesimPolicies), "ns")
	o.notes["replay"] = map[string]any{"steps": t.genCalls, "accesses": t.accesses, "l2_lookups": t.l2Lookups,
		"l2_misses": t.l2Misses, "tlb_misses": t.tlbMisses, "dir_calls": t.dirCalls,
		"trace_records": t.records}
	return nil
}
