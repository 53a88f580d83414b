package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ccnuma/internal/obs"
	"ccnuma/internal/policy"
	"ccnuma/internal/sim"
	"ccnuma/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden observability exports")

// obsRun is the fixed-seed workload behind the golden files. Affinity
// scheduling plus a pre-touched shared region produces replications,
// shootdowns, hot-page interrupts, policy decisions, and a counter reset
// within ~20ms of virtual time, keeping the goldens small.
func obsRun(t *testing.T) *Result {
	t.Helper()
	res, err := Run(tinySpec(workload.SchedAffinity, 60000), Options{
		Seed: 7, Dynamic: true, CollectEvents: true,
		SampleInterval: sim.Millisecond, DebugChecks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestObservabilityEventKinds(t *testing.T) {
	res := obsRun(t)
	for _, k := range []obs.Kind{
		obs.KindPageReplicated, obs.KindTLBShootdown,
		obs.KindHotPageInterrupt, obs.KindPolicyDecision, obs.KindCounterReset,
	} {
		if res.ObsEvents.CountKind(k) == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	// The event stream must agree with the aggregate statistics.
	if n := res.ObsEvents.CountKind(obs.KindPageReplicated); uint64(n) != res.VM.Replics {
		t.Errorf("replication events %d != VM.Replics %d", n, res.VM.Replics)
	}
	if n := res.ObsEvents.CountKind(obs.KindPageMigrated); uint64(n) != res.VM.Migrates {
		t.Errorf("migration events %d != VM.Migrates %d", n, res.VM.Migrates)
	}
	if res.Series.Len() == 0 {
		t.Error("sampler recorded no samples")
	}
	// Sampled steps must sum to the run's executed steps (deltas are lossless
	// up to the tail after the last tick).
	var sampled uint64
	for _, sm := range res.Series.Samples() {
		for _, c := range sm.CPU {
			sampled += c.Steps
		}
	}
	if sampled > res.Steps {
		t.Errorf("sampled step deltas %d exceed total steps %d", sampled, res.Steps)
	}
}

func TestObservabilityMigrationEvents(t *testing.T) {
	// The write-shared spec under the migrate-write-shared extension is the
	// reliable migration producer (see TestMigrateWriteSharedEndToEnd).
	opt := Options{Seed: 3, Dynamic: true, CollectEvents: true}
	opt.Params = policy.Base().WithTrigger(64)
	opt.Params.MigrateWriteShared = true
	res, err := Run(s2(), opt)
	if err != nil {
		t.Fatal(err)
	}
	n := res.ObsEvents.CountKind(obs.KindPageMigrated)
	if n == 0 {
		t.Fatal("no migration events from the write-shared migrator")
	}
	if uint64(n) != res.VM.Migrates {
		t.Errorf("migration events %d != VM.Migrates %d", n, res.VM.Migrates)
	}
	for _, e := range res.ObsEvents.Events() {
		if e.Kind != obs.KindPageMigrated {
			continue
		}
		if e.From == e.To || e.From < 0 || e.To < 0 {
			t.Fatalf("malformed migration event: %+v", e)
		}
	}
}

// writeResultSummary renders the run's aggregate outcome — progress, event
// count, VM and policy activity, counter stats, locality, and the machine-wide
// breakdown — so the golden pins the statistics as well as the event stream.
func writeResultSummary(b *bytes.Buffer, res *Result) {
	fmt.Fprintf(b, "elapsed %d\n", int64(res.Elapsed))
	fmt.Fprintf(b, "steps %d\n", res.Steps)
	fmt.Fprintf(b, "events %d\n", res.Events)
	fmt.Fprintf(b, "vm %+v\n", res.VM)
	fmt.Fprintf(b, "actions %+v\n", res.Actions)
	fmt.Fprintf(b, "counters %+v\n", res.Counters)
	fmt.Fprintf(b, "local-miss-fraction %v\n", res.LocalMissFraction)
	fmt.Fprintf(b, "sched-migrations %d\n", res.SchedMigrations)
	fmt.Fprintf(b, "agg %s\n", res.Agg.Summary())
}

func TestObservabilityGolden(t *testing.T) {
	res := obsRun(t)
	exports := []struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		{"tiny_events.jsonl", func(b *bytes.Buffer) error { return res.ObsEvents.WriteJSONL(b) }},
		{"tiny_events.trace.json", func(b *bytes.Buffer) error { return res.ObsEvents.WriteChromeTrace(b) }},
		{"tiny_series.csv", func(b *bytes.Buffer) error { return res.Series.WriteCSV(b) }},
		{"tiny_result.txt", func(b *bytes.Buffer) error { writeResultSummary(b, res); return nil }},
	}
	for _, ex := range exports {
		var buf bytes.Buffer
		if err := ex.write(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", ex.name)
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create the goldens)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s drifted from its golden (got %d bytes, want %d); "+
				"run go test ./internal/core -run Golden -update if the change is intended",
				ex.name, buf.Len(), len(want))
		}
	}

	// A second identical run must export identical bytes (determinism is the
	// property that makes the goldens meaningful).
	res2 := obsRun(t)
	var a, b bytes.Buffer
	if err := res.ObsEvents.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := res2.ObsEvents.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two same-seed runs exported different event bytes")
	}
}
