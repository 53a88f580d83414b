// Package core assembles the complete system the paper evaluates: the
// CC-NUMA machine model (CPUs, caches, TLBs, directory controllers,
// interconnect), the kernel (VM, allocator, scheduler, pager), the policy,
// and a workload — and runs it under the deterministic event engine. It is
// the public entry point of the library: build a workload.Spec, choose
// Options, call Run, and read the Result.
package core

import (
	"fmt"

	"ccnuma/internal/directory"
	"ccnuma/internal/fault"
	"ccnuma/internal/kernel/alloc"
	"ccnuma/internal/kernel/klock"
	"ccnuma/internal/kernel/vm"
	"ccnuma/internal/obs"
	"ccnuma/internal/policy"
	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
	"ccnuma/internal/topology"
	"ccnuma/internal/trace"
)

// Metric selects the information source that drives the policy's counters
// (Section 8.3).
type Metric int

const (
	// FullCache counts every second-level cache miss (FLASH hardware).
	FullCache Metric = iota
	// SampledCache counts one cache miss in ten.
	SampledCache
	// FullTLB counts every TLB miss (software-reloaded TLBs).
	FullTLB
	// SampledTLB counts one TLB miss in ten.
	SampledTLB
)

// String names the metric as in Figure 8.
func (m Metric) String() string {
	switch m {
	case FullCache:
		return "FC"
	case SampledCache:
		return "SC"
	case FullTLB:
		return "FT"
	case SampledTLB:
		return "ST"
	default:
		return "?"
	}
}

// CacheDriven reports whether the metric counts cache misses.
func (m Metric) CacheDriven() bool { return m == FullCache || m == SampledCache }

// SampleRate returns the counting sample rate for the metric.
func (m Metric) SampleRate() int {
	if m == SampledCache || m == SampledTLB {
		return 10
	}
	return 1
}

// Options configure a full-system run.
type Options struct {
	// Config is the machine; zero value selects the CC-NUMA preset. The
	// workload's Nodes/MemoryPerNode overrides are applied on top.
	Config topology.Config
	// Dynamic enables the migration/replication policy; otherwise the run
	// uses only the static placement.
	Dynamic bool
	// Params are the policy parameters for dynamic runs. A zero Trigger is
	// replaced by the workload's per-paper trigger threshold.
	Params policy.Params
	// Placement is the static placement: vm.FirstTouch (default) or
	// vm.RoundRobin.
	Placement vm.Placer
	// RoundRobin selects round-robin placement (convenience; overrides
	// Placement).
	RoundRobin bool
	// Metric is the information source for the counters.
	Metric Metric
	// Seed makes runs reproducible.
	Seed uint64
	// Duration overrides the workload's default run length.
	Duration sim.Time
	// CollectTrace records all cache and TLB misses (Section 8 input).
	CollectTrace bool
	// CollectEvents records typed observability events (migrations,
	// replications, collapses, TLB shootdowns, hot-page interrupts, policy
	// decisions, counter resets) into Result.ObsEvents.
	CollectEvents bool
	// SampleInterval, when positive, runs the periodic time-series sampler:
	// per-CPU breakdown deltas, per-node frame occupancy, counter and engine
	// gauges every interval of virtual time, into Result.Series.
	SampleInterval sim.Time
	// DebugChecks makes the sampler validate accounting invariants
	// (stats.Breakdown.CheckInvariants) on every sample.
	DebugChecks bool
	// Quantum is the scheduling time slice (default 5 ms).
	Quantum sim.Time
	// ReplicateCodeOnFirstTouch enables the space-overhead ablation of
	// Section 7.2.3: every code page is replicated to a node on the node's
	// first touch instead of waiting for the policy.
	ReplicateCodeOnFirstTouch bool
	// AdaptiveTrigger enables the adaptive-trigger extension (Section 8.4's
	// future work): the trigger threshold self-adjusts each reset interval.
	AdaptiveTrigger bool
	// ReclaimColdReplicas enables cold-replica reclamation each interval,
	// bounding replication's space overhead.
	ReclaimColdReplicas bool
	// Faults configures the deterministic fault injector (internal/fault).
	// The zero value disables it entirely: no injector is built and the run
	// is byte-identical to one on a build without the fault layer.
	Faults fault.Config
	// CollectShardStats attaches the engine's per-node dispatch attribution
	// (one lane per node: per-lane dispatch counts, pending high-water marks,
	// cross-lane traffic, windowed dispatch timeline) into
	// Result.ShardStats. Collection never changes simulation results (gated
	// by TestShardStatsNeutral), so it is erased from Fingerprint.
	CollectShardStats bool
	// Recorder, when non-nil, is the failure flight recorder: every typed
	// observability event is mirrored into its bounded ring (without the
	// unbounded buffering of CollectEvents) so a crashed or timed-out run can
	// dump its last moments. Wiring is an execution detail — the ring is
	// write-only from the simulation's view — so it too is erased from
	// Fingerprint.
	Recorder *obs.Recorder
	// EventSink, when non-nil, receives every typed observability event as
	// it is emitted — the streaming path (numasimd progress streams write
	// them as NDJSON while the run executes). Unlike CollectEvents nothing
	// is buffered, so a sink is safe on arbitrarily long runs. Observation
	// only: the sink cannot influence the simulation, so it is erased from
	// Fingerprint like Recorder.
	EventSink func(obs.Event)
}

// Fingerprint renders every field of the options into a string that
// distinguishes any two simulations that could produce different results.
// Memo caches (internal/report) key on it, so it must cover the full
// struct: %+v recurses into Config and Params and picks up new fields
// automatically. Placement is a function value and formats as its code
// address — stable within a process, which is all an in-process memo needs
// (two distinct placer values conservatively get distinct keys).
func (o Options) Fingerprint() string {
	// Observation-only knobs are erased: shard-stats collection (result
	// bytes unchanged), the flight recorder (a write-only ring whose pointer
	// would otherwise make every attempt's key unique) and the event sink.
	o.CollectShardStats = false
	o.Recorder = nil
	o.EventSink = nil
	return fmt.Sprintf("%+v", o)
}

func (o Options) withDefaults(spec specLike) (Options, error) {
	if o.Config.Nodes == 0 {
		o.Config = topology.CCNUMA()
	}
	if spec.nodes() > 0 {
		o.Config.Nodes = spec.nodes()
	}
	if spec.memoryPerNode() > 0 {
		o.Config.MemoryPerNode = spec.memoryPerNode()
	}
	if o.Placement == nil {
		o.Placement = vm.FirstTouch
	}
	if o.RoundRobin {
		o.Placement = vm.RoundRobin(o.Config.Nodes)
	}
	if o.Dynamic {
		if o.Params.Trigger == 0 {
			o.Params = policy.Base().WithTrigger(spec.trigger())
		}
		o.Params = o.Params.ScaledForSampling(o.Metric.SampleRate())
		if err := o.Params.Validate(); err != nil {
			return o, err
		}
	}
	if o.Quantum <= 0 {
		o.Quantum = 5 * sim.Millisecond
	}
	if o.Duration <= 0 {
		o.Duration = spec.duration()
	}
	if o.Duration <= 0 {
		return o, fmt.Errorf("core: no run duration")
	}
	if o.DebugChecks && o.SampleInterval <= 0 {
		// The debug checks run on sampler ticks; give them a tick to run on.
		o.SampleInterval = sim.Millisecond
	}
	if err := o.Config.Validate(); err != nil {
		return o, err
	}
	if err := o.Faults.Validate(o.Config.Nodes); err != nil {
		return o, err
	}
	return o, nil
}

// specLike decouples option defaulting from the workload package for tests.
type specLike interface {
	nodes() int
	memoryPerNode() int64
	trigger() uint16
	duration() sim.Time
}

// Result is everything a run measured.
type Result struct {
	Workload string
	Policy   string
	Elapsed  sim.Time

	// PerCPU breakdowns and their machine-wide aggregate.
	PerCPU []stats.Breakdown
	Agg    stats.Breakdown

	// Actions is the Table-4 accounting (dynamic runs).
	Actions policy.ActionStats
	// VM and allocator activity.
	VM    vm.Stats
	Alloc alloc.Stats
	// Contention is the Section 7.1.2 picture.
	Contention directory.MachineContention
	// Counter activity (hot pages, sampling).
	Counters directory.CounterStats
	// Lock contention (memlock vs page locks).
	Memlock   klock.Stats
	PageLocks klock.Stats
	// SchedMigrations counts cross-CPU process moves.
	SchedMigrations uint64
	// LocalMissFraction is the share of L2 misses satisfied locally.
	LocalMissFraction float64
	// AvgRemoteLatency is the observed mean remote miss latency.
	AvgRemoteLatency sim.Time
	// Trace holds the recorded misses when Options.CollectTrace was set.
	Trace *trace.Trace
	// ObsEvents holds the typed event trace when Options.CollectEvents was
	// set (export with WriteJSONL / WriteChromeTrace).
	ObsEvents *obs.Tracer
	// Series holds the sampled time-series when Options.SampleInterval was
	// positive (export with WriteCSV / WriteJSONL).
	Series *obs.Sampler
	// ShardStats holds the engine's per-lane introspection when
	// Options.CollectShardStats was set (export with
	// obs.WriteShardStatsJSONL / report.ShardStatsTable).
	ShardStats *sim.ShardStats
	// Events is the number of simulator events dispatched.
	Events uint64
	// Steps is the number of memory references executed (work completed).
	Steps uint64
	// FinalParams are the policy parameters at the end of the run (they
	// change under the adaptive-trigger extension).
	FinalParams policy.Params
	// TriggerTrace is the trigger value at each interval boundary when the
	// adaptive extension is on.
	TriggerTrace []uint16
	// Faults reports what the fault injector did (DrainedNode is -1 when no
	// injector ran or no drain fired).
	Faults fault.Stats
	// Failed marks a placeholder result the harness substitutes for a run
	// that panicked or timed out under -keep-going; every measurement field
	// is zero.
	Failed bool
}

// NonIdle returns the machine-wide busy time.
func (r *Result) NonIdle() sim.Time { return r.Agg.NonIdle() }

// Describe renders a one-line summary.
func (r *Result) Describe() string {
	return fmt.Sprintf("%s/%s: %s", r.Workload, r.Policy, r.Agg.Summary())
}
