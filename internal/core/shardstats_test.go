package core

import (
	"bytes"
	"fmt"
	"testing"

	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
	"ccnuma/internal/workload"
)

// checkStatsNeutral runs one configuration with and without per-node
// dispatch stats, a flight recorder riding along on both, and pins the
// invariants the per-node report rests on: collecting stats never perturbs
// the simulation (byte-identical exports and recorder dumps), there is one
// lane per node, every dispatched event is charged to exactly one lane, and
// every cross-lane post is counted once leaving and once arriving.
func checkStatsNeutral(t *testing.T, spec func() *workload.Spec, opt Options) {
	t.Helper()
	baseOpt := opt
	baseOpt.CollectShardStats = false
	baseOpt.Recorder = obs.NewRecorder(128)
	base, err := Run(spec(), baseOpt)
	if err != nil {
		t.Fatal(err)
	}
	if base.ShardStats != nil {
		t.Fatal("stats collected without CollectShardStats")
	}
	opt.CollectShardStats = true
	opt.Recorder = obs.NewRecorder(128)
	sys, err := NewSystem(spec(), opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := append(shardExports(t, base), recorderDump(baseOpt.Recorder)...)
	got := append(shardExports(t, res), recorderDump(opt.Recorder)...)
	if !bytes.Equal(want, got) {
		t.Fatalf("collecting stats perturbed the simulation (%d vs %d bytes)\nfirst divergence: %s",
			len(want), len(got), firstDiff(want, got))
	}

	st := res.ShardStats
	if st == nil {
		t.Fatal("no stats collected")
	}
	if st.Lanes() != sys.cfg.Nodes {
		t.Fatalf("stats cover %d lanes, want one per node (%d)", st.Lanes(), sys.cfg.Nodes)
	}
	var dispatched, sent, recv uint64
	for i := 0; i < st.Lanes(); i++ {
		ls := st.Lane(i)
		dispatched += ls.Dispatched
		sent += ls.Sent
		recv += ls.Recv
	}
	if dispatched != res.Events {
		t.Fatalf("lanes dispatched %d events, the run fired %d", dispatched, res.Events)
	}
	if dispatched == 0 {
		t.Fatal("run dispatched nothing")
	}
	if sent != st.Posts() || recv != st.Posts() {
		t.Fatalf("sent %d / recv %d, want both equal to posts %d", sent, recv, st.Posts())
	}
}

// TestShardStatsNeutral pins the per-node stats invariants (see
// checkStatsNeutral) on the golden shard-stats configuration, the one the
// Makefile's obs-shard-smoke step reports. (Every typed schedule there stays
// on its node, so posts are zero; sim's TestShardStatsSerialized covers
// non-zero traffic.)
func TestShardStatsNeutral(t *testing.T) {
	_, opt := statsOpt()
	spec := func() *workload.Spec {
		s, _ := statsOpt()
		return s
	}
	checkStatsNeutral(t, spec, opt)
}

// recorderDump renders a flight recorder's ring (events plus truncation
// marker); it follows dispatch order, so it joins the byte-equality gate.
func recorderDump(r *obs.Recorder) []byte {
	events, dropped := r.Dump()
	var b bytes.Buffer
	fmt.Fprintf(&b, "recorder dropped=%d\n", dropped)
	for _, e := range events {
		fmt.Fprintf(&b, "%+v\n", e)
	}
	return b.Bytes()
}

// statsOpt returns the golden shard-stats workload options (matching the
// Makefile's obs-shard-smoke step).
func statsOpt() (spec *workload.Spec, opt Options) {
	build, err := workload.ByName("engineering")
	if err != nil {
		panic(err)
	}
	return build(0.05, 11), Options{
		Seed: 11, Dynamic: true, Duration: 4 * sim.Millisecond,
		CollectShardStats: true, CollectEvents: true,
	}
}

// statsArtifacts renders the shard-stats consumer surfaces available at this
// layer for one run: the JSONL report and the lane-track Chrome trace. (The
// ASCII table lives in internal/report, which imports core; its determinism
// test sits there.)
func statsArtifacts(t *testing.T) []byte {
	t.Helper()
	res, err := Run(statsOpt())
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := obs.WriteShardStatsJSONL(&b, res.ShardStats); err != nil {
		t.Fatal(err)
	}
	if err := res.ObsEvents.WriteChromeTraceWith(&b, res.ShardStats); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestShardStatsDeterministic pins byte determinism of the shard-stats
// artifacts: two identical runs produce identical JSONL and Chrome trace
// (with lane tracks) output.
func TestShardStatsDeterministic(t *testing.T) {
	a := statsArtifacts(t)
	b := statsArtifacts(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("shard-stats artifacts not deterministic\nfirst divergence: %s", firstDiff(a, b))
	}
}

// TestLaneDispatchBalance pins the wake routing: with wakes charged to their
// target CPU's node (instead of lane 0), no lane on a golden workload
// dispatches more than twice the per-lane mean. Lane 0 still carries
// everything unroutable — closures and periodics — so the bound is a
// hotspot detector, not an exact-balance assertion.
func TestLaneDispatchBalance(t *testing.T) {
	for _, tc := range shardCases() {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.CollectShardStats = true
			res, err := Run(tc.spec(), opt)
			if err != nil {
				t.Fatal(err)
			}
			st := res.ShardStats
			mean := st.TotalDispatched() / uint64(st.Lanes())
			for i := 0; i < st.Lanes(); i++ {
				if d := st.Lane(i).Dispatched; d > 2*mean {
					t.Fatalf("lane %d dispatched %d events, more than 2x the per-lane mean %d (total %d) — a hotspot",
						i, d, mean, st.TotalDispatched())
				}
			}
		})
	}
}
