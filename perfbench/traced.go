package main

import (
	"fmt"
	"path/filepath"
	"time"

	"ccnuma/internal/profiling"
)

// runTraced is the traced run: the per-layer metrics. It alternates
// untraced and traced chunks of the workload (spans plus a CPU profile) for
// cfg.seconds, which gives the tracing overhead and the layer table; then it
// runs fixed-input reference passes through every layer, so the counts
// repeat exactly from run to run whatever the seed.
func runTraced(cfg config, o *outcome) error {
	tr := newTracer()
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	var overhead float64
	var profiles []string
	var err error
	switch cfg.workload {
	case "fullsys":
		overhead, profiles, err = tracedFullsys(cfg, tr, base, o)
	case "regen":
		overhead, profiles, err = tracedRegen(cfg, tr, base, o)
	case "serve-mix":
		overhead, profiles, err = tracedServe(cfg, tr, base, o)
	default:
		return fmt.Errorf("unknown workload %q (want fullsys, regen or serve-mix)", cfg.workload)
	}
	if err != nil {
		return err
	}
	o.set("trace.overhead_pct", 100*overhead, "%")
	shares, err := cpuShares(profiles...)
	if err != nil {
		return err
	}
	for _, l := range layers {
		o.set(l+".cpu_share", shares[l], "ratio")
	}

	if err := refFullsys(cfg, tr, o); err != nil {
		return err
	}
	if err := refRegen(cfg, tr, o); err != nil {
		return err
	}
	if err := refServe(cfg, tr, o); err != nil {
		return err
	}
	if err := replayLayers(tr, o); err != nil {
		return err
	}

	o.notes["self_s"] = tr.selfTimes()
	if err := tr.writeChrome(base + ".trace.json"); err != nil {
		return err
	}
	o.notes["chrome_trace"] = base + ".trace.json"
	o.notes["cpu_profiles"] = profiles
	return nil
}

// alternate runs chunk i untraced and then traced, for i = 0, 1, ... until
// d has elapsed (at least one pair), profiling each traced chunk to its own
// file. Pairing the chunks cancels drift in the machine's speed out of the
// overhead.
func alternate(d time.Duration, base string, chunk func(i uint64, traced bool) error) ([]string, error) {
	var profiles []string
	start := time.Now()
	for i := uint64(0); i == 0 || time.Since(start) < d; i++ {
		if err := chunk(i, false); err != nil {
			return nil, err
		}
		path := fmt.Sprintf("%s.%d.cpu.pprof", base, i)
		stop, err := profiling.Start(path, "")
		if err != nil {
			return nil, err
		}
		err = chunk(i, true)
		stop()
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, path)
	}
	return profiles, nil
}

// tracedFullsys pairs untraced and traced passes over the same inputs; the
// overhead is the relative change in host time per simulated step.
func tracedFullsys(cfg config, tr *tracer, base string, o *outcome) (float64, []string, error) {
	if _, err := fullsysPasses(cfg, cfg.seed, 0, nil, o); err != nil {
		return 0, nil, err
	}
	var side [2]fullsysTotals
	profiles, err := alternate(cfg.seconds, base, func(i uint64, traced bool) error {
		t := (*tracer)(nil)
		k := 0
		if traced {
			t, k = tr, 1
		}
		x, err := fullsysPasses(cfg, cfg.seed+i, 0, t, o)
		side[k].steps += x.steps
		side[k].busy += x.busy
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	perStep := func(x fullsysTotals) float64 { return x.busy.Seconds() / float64(x.steps) }
	return perStep(side[1])/perStep(side[0]) - 1, profiles, nil
}

// tracedRegen pairs untraced and traced regenerations with the same seed;
// the overhead is the relative change in wall time.
func tracedRegen(cfg config, tr *tracer, base string, o *outcome) (float64, []string, error) {
	if _, err := regenReps(cfg, cfg.seed, 0, nil, o); err != nil {
		return 0, nil, err
	}
	var wall [2]time.Duration
	profiles, err := alternate(cfg.seconds, base, func(i uint64, traced bool) error {
		t := (*tracer)(nil)
		k := 0
		if traced {
			t, k = tr, 1
		}
		x, err := regenReps(cfg, cfg.seed+i, 0, t, o)
		wall[k] += x.wall
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	return wall[1].Seconds()/wall[0].Seconds() - 1, profiles, nil
}

// tracedServe pairs open-loop chunks against an untraced server and against
// a server behind the timing handler wrapper, each warmed first; the
// overhead is the relative change in median hit latency.
func tracedServe(cfg config, tr *tracer, base string, o *outcome) (float64, []string, error) {
	var envs [2]*serveEnv
	var hot []mixRequest
	var want [][]byte
	defer func() {
		for _, e := range envs {
			if e != nil {
				e.close()
			}
		}
	}()
	for k, t := range []*tracer{nil, tr} {
		var err error
		if envs[k], hot, want, _, err = serveSetup(cfg, t, 1, o); err != nil {
			return 0, nil, err
		}
	}
	var hits [2][]float64
	fresh := freshBase(cfg.seed)
	profiles, err := alternate(cfg.seconds, base, func(i uint64, traced bool) error {
		k := 0
		if traced {
			k = 1
		}
		st, err := envs[k].drive(cfg.nproc, cfg.seed<<8+i, serveChunk, hot, want, &fresh, o)
		hits[k] = append(hits[k], st.hitLat...)
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	u, ok1 := percentile(hits[0], 0.5)
	t, ok2 := percentile(hits[1], 0.5)
	if !ok1 || !ok2 {
		return 0, nil, fmt.Errorf("serve-mix: too few hits for a median")
	}
	return t/u - 1, profiles, nil
}

// serveChunk is the length of one traced or untraced serve-mix chunk.
const serveChunk = 2 * time.Second

// refFullsys runs reference pass 0 with spans around NewSystem and Run.
func refFullsys(cfg config, tr *tracer, o *outcome) error {
	t, err := fullsysPasses(cfg, 0, 0, tr, o)
	if err != nil {
		return err
	}
	o.set("sim.events", float64(t.events), "count")
	o.set("kernel.actions", float64(t.actions), "count")
	o.set("core.run_s", t.run.Seconds(), "s")
	o.set("core.new_system_ms", float64(t.newSys.Nanoseconds())/1e6/float64(t.runs), "ms")
	return nil
}

// refRegen runs one regeneration with the first pool seed and the harness's
// span timeline on.
func refRegen(cfg config, tr *tracer, o *outcome) error {
	seed := regenSeeds[0]
	rg, err := regenerate(seed, cfg.nproc, tr, 0)
	if err != nil {
		return err
	}
	o.check(digest(rg.doc) == cfg.golden.Regen[fmt.Sprint(seed)], "reference regen: digest differs")
	var simWall, queued, running time.Duration
	for _, m := range rg.metrics {
		simWall += m.Wall
	}
	for _, s := range rg.spans {
		switch s.State {
		case "queued":
			queued += s.End - s.Start
		case "running":
			running += s.End - s.Start
		}
	}
	o.set("report.sim_wall_sum_s", simWall.Seconds(), "s")
	o.set("report.queue_wait_s", queued.Seconds(), "s")
	o.set("report.core_busy_frac", running.Seconds()/(float64(cfg.nproc)*rg.wall.Seconds()), "ratio")
	o.set("report.executed", float64(rg.executed), "count")
	o.set("report.memo_hits", float64(rg.memoHits), "count")
	return nil
}

// refServeSeconds is the reference burst's length: long enough for a p99
// with ten hits beyond it at serveRate.
const refServeSeconds = 5

// refServe drives a wrapped server for a fixed burst with a fixed seed.
func refServe(cfg config, tr *tracer, o *outcome) error {
	env, hot, want, _, err := serveSetup(cfg, tr, 1, o)
	if err != nil {
		return err
	}
	h0, m0, _, err := env.health()
	if err != nil {
		env.close()
		return err
	}
	fresh := freshBase(0)
	st, err := env.drive(cfg.nproc, 0, refServeSeconds*time.Second, hot, want, &fresh, o)
	if err != nil {
		env.close()
		return err
	}
	h1, m1, rejected, err := env.health()
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	handler, ok1 := percentile(st.handlerHit, 0.5)
	outside, ok2 := percentile(st.outsideHit, 0.5)
	late, ok3 := percentile(st.late, 0.99)
	p99, ok4 := percentile(st.hitLat, 0.99)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return fmt.Errorf("reference serve: too few samples (%d hits)", st.hits)
	}
	o.set("serve.handler_hit_ms", handler, "ms")
	o.set("serve.outside_handler_ms", outside, "ms")
	o.set("serve.cache_hit_ratio", float64(h1-h0)/float64(h1-h0+m1-m0), "ratio")
	o.set("serve.rejected", float64(rejected), "count")
	o.set("serve.gen_late_ms", late, "ms")
	o.set("serve.hit_p99_ms", p99, "ms")
	return nil
}
