package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"ccnuma/internal/report"
)

// regenScale keeps one regeneration of the whole experiment set near two
// seconds at -j 2, so a measurement covers several regenerations.
const regenScale = 0.05

// regenResult is one regeneration of the registered experiment set.
type regenResult struct {
	doc                []byte // the report, as cmd/experiments -out writes it
	wall               time.Duration
	steps              uint64
	metrics            []report.RunMetric
	spans              []report.Span
	executed, memoHits uint64
}

// regenerate runs every registered experiment on a fresh harness (cold
// memo) with j concurrent simulations. tr, when non-nil, records a span per
// experiment and imports the harness's own queued/running spans.
func regenerate(seed uint64, j int, tr *tracer, parent int) (rg regenResult, err error) {
	h := report.NewHarness(regenScale, seed)
	h.Workers = j
	h.CollectSpans = tr != nil
	sp := tr.begin(fmt.Sprintf("regen seed=%d", seed), "report", parent, 0)
	t0 := time.Now()
	var doc bytes.Buffer
	func() {
		// An experiment panics when a simulation fails; that is a failed
		// regeneration, not a crashed benchmark.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("regen seed %d: %v", seed, r)
			}
		}()
		for _, e := range report.Experiments() {
			es := tr.begin("report.experiment "+e.ID, "report", sp, 0)
			body := e.Run(h)
			tr.end(es)
			fmt.Fprintf(&doc, "## %s — %s\n\n%s\n", e.ID, e.Title, body)
		}
	}()
	rg.wall = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return rg, err
	}
	rg.doc = doc.Bytes()
	rg.metrics = h.Metrics()
	for _, m := range rg.metrics {
		rg.steps += m.Steps
	}
	rg.executed, rg.memoHits = h.Counters()
	if tr != nil {
		rg.spans = h.Spans()
		// The harness times its spans from its first Run call, which follows
		// t0 by microseconds; t0 stands in for that epoch.
		tr.importHarness(rg.spans, t0, sp)
	}
	return rg, nil
}

// regenTotals sums what a sequence of regenerations did.
type regenTotals struct {
	reps, good int           // regenerations; those whose digest matched
	wall       time.Duration // the regenerations alone
	elapsed    time.Duration // the whole loop, output checks included
	steps      uint64
}

// regenReps regenerates, rotating through the seed pool from index first,
// until d has elapsed (at least once), checking each report's digest.
func regenReps(cfg config, first uint64, d time.Duration, tr *tracer, o *outcome) (regenTotals, error) {
	var t regenTotals
	start := time.Now()
	for i := first; i == first || time.Since(start) < d; i++ {
		seed := regenSeeds[i%uint64(len(regenSeeds))]
		rg, err := regenerate(seed, cfg.nproc, tr, 0)
		want, ok := cfg.golden.Regen[strconv.FormatUint(seed, 10)]
		ok = err == nil && ok && digest(rg.doc) == want
		o.check(ok, "regen seed %d: report digest differs from the recorded one (err %v)", seed, err)
		if err != nil {
			return t, err
		}
		t.reps++
		if ok {
			t.good++
		}
		t.wall += rg.wall
		t.steps += rg.steps
	}
	t.elapsed = time.Since(start)
	return t, nil
}

// regenBench is the regen workload's untraced run: set-up is a fresh
// harness plus a warm-up regeneration, then regenerations for cfg.seconds.
func regenBench(cfg config, o *outcome) error {
	setup, err := timeSetup(func() error {
		_, err := regenReps(cfg, cfg.seed, 0, nil, o)
		return err
	})
	if err != nil {
		return err
	}
	t, err := regenReps(cfg, cfg.seed, cfg.seconds, nil, o)
	if err != nil {
		return err
	}
	o.set("setup_s", setup, "s")
	o.set("latency_ms", float64(t.wall.Nanoseconds())/1e6/float64(t.reps), "ms")
	o.set("msteps_per_s", float64(t.steps)/t.wall.Seconds()/1e6, "Msteps/s")
	o.set("goodput_per_s", float64(t.good)/t.elapsed.Seconds(), "1/s")
	o.notes["regen_reps"] = t.reps
	o.notes["regen_j"] = cfg.nproc
	return nil
}
