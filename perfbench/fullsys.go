package main

import (
	"fmt"
	"time"

	"ccnuma/internal/core"
	"ccnuma/internal/serve"
	"ccnuma/internal/workload"
)

// fullsysScale keeps one pass of the ten runs near two seconds on one core,
// so a measurement covers many passes and set-up is seconds of real work.
const fullsysScale = 0.1

// fullsysPolicies are the two placement policies each paper workload runs
// under: the first-touch baseline and the base migration/replication policy.
var fullsysPolicies = []string{"ft", "migrep"}

// simRun names one full-system simulation.
type simRun struct {
	workload, policy string
	seed             uint64
}

func (r simRun) key() string { return fmt.Sprintf("%s/%s/%d", r.workload, r.policy, r.seed) }

// fullsysPass is pass i: the five paper workloads under both policies, all
// with the i-th seed of the reference pool (so every run has a recorded
// digest).
func fullsysPass(i uint64) []simRun {
	seed := fullsysSeeds[i%uint64(len(fullsysSeeds))]
	runs := make([]simRun, 0, 2*len(workload.Names()))
	for _, wl := range workload.Names() {
		for _, pol := range fullsysPolicies {
			runs = append(runs, simRun{wl, pol, seed})
		}
	}
	return runs
}

// simResult is one executed simulation with its host timings.
type simResult struct {
	res               *core.Result
	body              []byte // serve.ResultJSON bytes
	newSys, run, wall time.Duration
}

// simulate builds and runs r through serve.Request.Build — the option path
// numasim and numasimd share — and renders the result as they do. tr, when
// non-nil, records spans around the calls into each layer under parent.
func simulate(r simRun, scale float64, tr *tracer, parent int) (simResult, error) {
	t0 := time.Now()
	run := tr.begin("fullsys.run "+r.key(), "fullsys", parent, 0)
	defer tr.end(run)
	seed := r.seed
	job, err := serve.Request{Workload: r.workload, Policy: r.policy, Scale: scale, Seed: &seed}.Build()
	if err != nil {
		return simResult{}, err
	}
	sp := tr.begin("workload.build", "workload", run, 0)
	spec := job.Spec()
	tr.end(sp)
	sp = tr.begin("core.NewSystem", "core", run, 0)
	tn := time.Now()
	sys, err := core.NewSystem(spec, job.Opt)
	newSys := time.Since(tn)
	tr.end(sp)
	if err != nil {
		return simResult{}, err
	}
	sp = tr.begin("core.Run", "core", run, 0)
	tr0 := time.Now()
	res, err := sys.Run()
	runDur := time.Since(tr0)
	tr.end(sp)
	if err != nil {
		return simResult{}, err
	}
	wall := time.Since(t0)
	body, err := serve.ResultJSON(res)
	if err != nil {
		return simResult{}, err
	}
	return simResult{res: res, body: body, newSys: newSys, run: runDur, wall: wall}, nil
}

// fullsysTotals sums what a sequence of passes executed.
type fullsysTotals struct {
	runs, good    int // executed runs; runs whose digest matched
	steps, events uint64
	actions       uint64        // hot pages the kernel's pager decided on
	busy          time.Duration // request building, NewSystem and Run
	newSys, run   time.Duration // NewSystem alone, Run alone
	passRates     []float64     // Msteps/s of each pass
	elapsed       time.Duration // the whole loop, output checks included
}

// fullsysPasses runs whole passes, starting at pass index first, until d has
// elapsed (at least one pass), checking each run's ResultJSON digest against
// the recorded one.
func fullsysPasses(cfg config, first uint64, d time.Duration, tr *tracer, o *outcome) (fullsysTotals, error) {
	var t fullsysTotals
	start := time.Now()
	for p := first; p == first || time.Since(start) < d; p++ {
		steps0, busy0 := t.steps, t.busy
		pass := tr.begin(fmt.Sprintf("fullsys.pass %d", p), "fullsys", 0, 0)
		for _, r := range fullsysPass(p) {
			sr, err := simulate(r, fullsysScale, tr, pass)
			if err != nil {
				return t, fmt.Errorf("fullsys %s: %w", r.key(), err)
			}
			want, ok := cfg.golden.Fullsys[r.key()]
			ok = ok && digest(sr.body) == want
			o.check(ok, "fullsys %s: ResultJSON digest differs from the recorded one", r.key())
			t.runs++
			if ok {
				t.good++
			}
			t.steps += sr.res.Steps
			t.events += sr.res.Events
			t.actions += sr.res.Actions.HotPages
			t.busy += sr.wall
			t.newSys += sr.newSys
			t.run += sr.run
		}
		tr.end(pass)
		t.passRates = append(t.passRates, float64(t.steps-steps0)/(t.busy-busy0).Seconds()/1e6)
	}
	t.elapsed = time.Since(start)
	return t, nil
}

// fullsysBench is the fullsys workload's untraced run: set-up is a warm-up
// pass (construction included), then whole passes for cfg.seconds.
func fullsysBench(cfg config, o *outcome) error {
	setup, err := timeSetup(func() error {
		_, err := fullsysPasses(cfg, cfg.seed, 0, nil, o)
		return err
	})
	if err != nil {
		return err
	}
	t, err := fullsysPasses(cfg, cfg.seed, cfg.seconds, nil, o)
	if err != nil {
		return err
	}
	o.set("setup_s", setup, "s")
	o.set("msteps_per_s", float64(t.steps)/t.busy.Seconds()/1e6, "Msteps/s")
	o.set("latency_ms", float64(t.busy.Nanoseconds())/1e6/float64(t.runs), "ms")
	o.set("goodput_per_s", float64(t.good)/t.elapsed.Seconds(), "1/s")
	o.notes["fullsys_runs"] = t.runs
	o.notes["fullsys_pass_msteps_per_s"] = t.passRates
	return nil
}
