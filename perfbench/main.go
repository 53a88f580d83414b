// Command perfbench is the repository benchmark. One invocation runs one
// workload in its own process, checks the output of every timed operation,
// and prints one JSON result line as the last line of standard output:
//
//	go build -o perfbench.bin . && ./perfbench.bin --workload fullsys --seed 1 --seconds 20 --trace 0
//
// Workloads: fullsys (one simulation at a time, closed loop), regen (the
// registered experiment set at -j nproc) and serve-mix (numasimd's handler
// under open-loop Poisson load). --trace 0 reports the end-to-end metrics;
// --trace 1 is the separate traced run that reports the per-layer metrics.
// README.md documents every metric and the reason for each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times each workload's set-up runs per process;
// setup_s is the median, so one slow set-up does not move it.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome accumulates one invocation's checks and metrics.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	notes             map[string]any // written to the run record, not the result line
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, notes: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one checked operation; a failed check is logged with what.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	outDir   string
	nproc    int
	golden   golden
}

func main() {
	var (
		wl          = flag.String("workload", "", "fullsys | regen | serve-mix")
		seed        = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds     = flag.Int("seconds", 10, "measurement length in seconds")
		traced      = flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run reporting per-layer metrics")
		outDir      = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run records, traces and profiles")
		writeGolden = flag.String("write-golden", "", "recompute the reference digests into this file and exit")
	)
	flag.Parse()

	if *writeGolden != "" {
		if err := recordGolden(*writeGolden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		outDir:   *outDir,
		nproc:    runtime.NumCPU(),
		golden:   g,
	}
	o := newOutcome()
	if *traced == 1 {
		err = runTraced(cfg, o)
	} else {
		err = runUntraced(cfg, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(cfg, *traced, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runUntraced measures the workload's end-to-end metrics.
func runUntraced(cfg config, o *outcome) error {
	var err error
	switch cfg.workload {
	case "fullsys":
		err = fullsysBench(cfg, o)
	case "regen":
		err = regenBench(cfg, o)
	case "serve-mix":
		err = serveBench(cfg, o)
	default:
		return fmt.Errorf("unknown workload %q (want fullsys, regen or serve-mix)", cfg.workload)
	}
	if err != nil {
		return err
	}
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

// emit prints the environment line and the result line, and writes the run
// record (result plus notes and environment) under cfg.outDir.
func emit(cfg config, traced int, o *outcome) error {
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      traced,
		"nproc":      cfg.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, o.metrics}

	rec, err := json.MarshalIndent(map[string]any{"env": env, "result": res, "notes": o.notes}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, traced)
	if err := os.WriteFile(filepath.Join(cfg.outDir, name), append(rec, '\n'), 0o644); err != nil {
		return err
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	fmt.Println(string(line))
	return nil
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// timeSetup runs setup setupReps times and returns the median duration.
func timeSetup(setup func() error) (float64, error) {
	durs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return median(durs), nil
}

// median returns the middle of xs (the mean of the middle two for even n).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile (0 < p < 1) of xs by the nearest-rank
// rule, and whether at least ten samples lie beyond it — the condition for
// reporting it at all.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return s[rank], n-1-rank >= 10
}
