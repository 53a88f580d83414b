package core

import (
	"bytes"
	"fmt"
	"testing"

	"ccnuma/internal/obs"
	"ccnuma/internal/sim"
	"ccnuma/internal/workload"
)

// shardExports renders every deterministic export of a result: the stats
// summary, the observability events JSONL, and the time-series (CSV and
// JSONL). Byte equality of this bundle is the stats-neutrality gate.
func shardExports(t *testing.T, res *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "elapsed=%d steps=%d events=%d\n", res.Elapsed, res.Steps, res.Events)
	fmt.Fprintf(&b, "agg=%+v\n", res.Agg)
	for i := range res.PerCPU {
		fmt.Fprintf(&b, "cpu%d=%+v\n", i, res.PerCPU[i])
	}
	fmt.Fprintf(&b, "vm=%+v alloc=%+v counters=%+v\n", res.VM, res.Alloc, res.Counters)
	fmt.Fprintf(&b, "actions=%+v sched=%d local=%.9f remote=%d\n",
		res.Actions, res.SchedMigrations, res.LocalMissFraction, res.AvgRemoteLatency)
	fmt.Fprintf(&b, "contention=%+v faults=%+v\n", res.Contention, res.Faults)
	if res.ObsEvents != nil {
		if err := res.ObsEvents.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
	}
	if res.Series != nil {
		if err := res.Series.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if err := res.Series.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// shardCases are the golden workload/option combinations the per-node
// dispatch tests run: dynamic policy with every observability surface on, a
// pinned static-placement run, a real paper workload at test scale, and a
// full-chaos fault-injected run.
func shardCases() []struct {
	name string
	spec func() *workload.Spec
	opt  Options
} {
	return []struct {
		name string
		spec func() *workload.Spec
		opt  Options
	}{
		{
			name: "tiny-affinity-dynamic",
			spec: func() *workload.Spec { return tinySpec(workload.SchedAffinity, 60000) },
			opt: Options{Seed: 7, Dynamic: true, CollectEvents: true,
				SampleInterval: sim.Millisecond, DebugChecks: true},
		},
		{
			name: "tiny-pinned-static",
			spec: func() *workload.Spec { return tinySpec(workload.SchedPinned, 60000) },
			opt:  Options{Seed: 3, CollectEvents: true, SampleInterval: sim.Millisecond},
		},
		{
			name: "engineering-scaled",
			spec: func() *workload.Spec {
				build, err := workload.ByName("engineering")
				if err != nil {
					panic(err)
				}
				return build(0.05, 11)
			},
			opt: Options{Seed: 11, Dynamic: true, CollectEvents: true,
				Duration: 8 * sim.Millisecond},
		},
		{
			name: "tiny-chaos",
			spec: func() *workload.Spec { return tinySpec(workload.SchedAffinity, 60000) },
			opt: Options{Seed: 5, Dynamic: true, CollectEvents: true,
				SampleInterval: sim.Millisecond, Faults: chaosConfig()},
		},
	}
}

// TestShardNeutrality is the per-node dispatch determinism gate across the
// golden cases: dynamic policy with every observability surface on, a
// pinned static placement, a paper workload at test scale and a full-chaos
// run must each export the same stats, events JSONL, time series and
// flight-recorder dump whether or not dispatch is attributed to per-node
// lanes, and the lane accounting must balance (see checkStatsNeutral).
func TestShardNeutrality(t *testing.T) {
	for _, tc := range shardCases() {
		t.Run(tc.name, func(t *testing.T) {
			checkStatsNeutral(t, tc.spec, tc.opt)
		})
	}
}

// firstDiff renders the first differing region of two byte slices.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo, hi := i-40, i+40
			if lo < 0 {
				lo = 0
			}
			if hi > n {
				hi = n
			}
			return fmt.Sprintf("at byte %d: %q vs %q", i, a[lo:hi], b[lo:hi])
		}
	}
	return fmt.Sprintf("common prefix of %d bytes", n)
}

// TestShardsAbsentFromFingerprint pins the memo contract for the
// observation-only knobs: shard-stats collection cannot change results, and
// a recorder pointer would make every attempt's memo key unique, so option
// sets differing only in those share one fingerprint (and one memo slot).
func TestShardsAbsentFromFingerprint(t *testing.T) {
	a := Options{Seed: 9, Dynamic: true}
	c := a
	c.Dynamic = false
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("distinct options collided — the fingerprint stopped covering Dynamic")
	}
	d := a
	d.CollectShardStats = true
	if a.Fingerprint() != d.Fingerprint() {
		t.Fatalf("CollectShardStats leaked into the fingerprint:\n%s\n%s",
			a.Fingerprint(), d.Fingerprint())
	}
	e := a
	e.Recorder = obs.NewRecorder(16)
	if a.Fingerprint() != e.Fingerprint() {
		t.Fatalf("the recorder pointer leaked into the fingerprint:\n%s\n%s",
			a.Fingerprint(), e.Fingerprint())
	}
}
