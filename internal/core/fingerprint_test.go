package core

import (
	"testing"

	"ccnuma/internal/policy"
	"ccnuma/internal/sim"
	"ccnuma/internal/topology"
)

// The options fingerprint keys the report layer's memo cache; any field
// whose change can alter a simulation must change the fingerprint, or the
// cache silently serves the wrong Result. The hand-rolled key it replaced
// omitted Sharing/Write/Migrate/ResetInterval.
func TestFingerprintDistinguishesEveryOptionField(t *testing.T) {
	base := Options{Dynamic: true, Params: policy.Base()}
	variants := map[string]func(*Options){
		"sharing":        func(o *Options) { o.Params.Sharing++ },
		"write":          func(o *Options) { o.Params.Write++ },
		"migrate":        func(o *Options) { o.Params.Migrate++ },
		"reset-interval": func(o *Options) { o.Params.ResetInterval += sim.Millisecond },
		"trigger":        func(o *Options) { o.Params.Trigger++ },
		"mig-wshared":    func(o *Options) { o.Params.MigrateWriteShared = true },
		"no-remap":       func(o *Options) { o.Params.DisableRemap = true },
		"dynamic":        func(o *Options) { o.Dynamic = false },
		"config":         func(o *Options) { o.Config = topology.CCNOW() },
		"round-robin":    func(o *Options) { o.RoundRobin = true },
		"metric":         func(o *Options) { o.Metric = SampledCache },
		"seed":           func(o *Options) { o.Seed++ },
		"duration":       func(o *Options) { o.Duration = sim.Second },
		"collect-trace":  func(o *Options) { o.CollectTrace = true },
		"quantum":        func(o *Options) { o.Quantum = sim.Millisecond },
		"code-ft":        func(o *Options) { o.ReplicateCodeOnFirstTouch = true },
		"adaptive":       func(o *Options) { o.AdaptiveTrigger = true },
		"reclaim":        func(o *Options) { o.ReclaimColdReplicas = true },
		"fault-seed":     func(o *Options) { o.Faults.Seed = 7 },
		"fault-drain":    func(o *Options) { o.Faults.DrainNode = 2; o.Faults.DrainAt = sim.Millisecond },
		"fault-drop":     func(o *Options) { o.Faults.DropBatch = 0.1 },
		"fault-alloc":    func(o *Options) { o.Faults.AllocFail = 0.1 },
		"fault-slow":     func(o *Options) { o.Faults.SlowNode = 1; o.Faults.SlowFactor = 2 },
		"fault-defer":    func(o *Options) { o.Faults.DeferFailedOps = true },
		"fault-budget":   func(o *Options) { o.Faults.OverheadBudget = 0.1 },
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, mutate := range variants {
		o := base
		mutate(&o)
		fp := o.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("variant %q has the same fingerprint as %q", name, prev)
		}
		seen[fp] = name
	}
}

func TestFingerprintStableForEqualOptions(t *testing.T) {
	a := Options{Dynamic: true, Params: policy.Base(), Config: topology.CCNUMA()}
	b := Options{Dynamic: true, Params: policy.Base(), Config: topology.CCNUMA()}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equal options fingerprint differently:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
}
