package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"

	"ccnuma/internal/report"
)

// span is one interval the benchmark recorded around a call into a layer.
type span struct {
	Name   string
	Layer  string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int   // id of the enclosing span, 0 for none
	Req    int64 // request id; spans of one request share it
	Lane   int   // Chrome trace thread
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil and pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, layer string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	lane := 0
	if req != 0 {
		lane = int(req)
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, End: -1, Parent: parent, Req: req, Lane: lane})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a finished span with explicit times.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans)
}

// setParent makes span id a child of parent.
func (t *tracer) setParent(id, parent int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Parent = parent
	t.mu.Unlock()
}

// importHarness adds a report.Harness span timeline (times relative to
// epoch) as children of parent, one Chrome trace lane per worker slot.
func (t *tracer) importHarness(spans []report.Span, epoch time.Time, parent int) {
	if t == nil {
		return
	}
	off := epoch.Sub(t.epoch)
	for _, s := range spans {
		t.add(span{Name: "harness." + s.State + " " + s.Workload, Layer: "report",
			Start: off + s.Start, End: off + s.End, Parent: parent, Lane: 1000 + s.Slot})
	}
}

// selfTimes returns each layer's self time in seconds: a span's duration
// minus the part of it its child spans cover (children may overlap each
// other when they run concurrently, so their union is subtracted).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[i+1], s.Start, s.End)
		out[s.Layer] += self.Seconds()
	}
	return out
}

// covered is the length of the union of spans' intervals clipped to [lo, hi].
func covered(spans []span, lo, hi time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing).
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		args := map[string]any{"id": i + 1}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Req != 0 {
			args["req"] = s.Req
		}
		evs = append(evs, event{Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane, Args: args})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers are the repository's modules, the rows of the layer table, plus
// the benchmark's own code (bench), the Go runtime when no module is on the
// stack (runtime), and everything else (other).
var layers = []string{"workload", "cache", "tlb", "directory", "kernel", "sim", "core", "report", "tracesim", "serve", "bench", "runtime", "other"}

// moduleOf maps a function to its module, or "" when it belongs to none
// (the standard library and the runtime). sim.Rand counts with workload
// generation, whose draws it serves; the small helper packages the machine
// is assembled from count with core, and policy with the kernel.
func moduleOf(fn string) string {
	pkgs := []struct{ prefix, layer string }{
		{"ccnuma/internal/sim.(*Rand)", "workload"},
		{"ccnuma/internal/workload.", "workload"},
		{"ccnuma/internal/cache.", "cache"},
		{"ccnuma/internal/tlb.", "tlb"},
		{"ccnuma/internal/directory.", "directory"},
		{"ccnuma/internal/interconnect.", "directory"},
		{"ccnuma/internal/kernel/", "kernel"},
		{"ccnuma/internal/policy.", "kernel"},
		{"ccnuma/internal/sim.", "sim"},
		{"ccnuma/internal/core.", "core"},
		{"ccnuma/internal/stats.", "core"},
		{"ccnuma/internal/mem.", "core"},
		{"ccnuma/internal/obs.", "core"},
		{"ccnuma/internal/fault.", "core"},
		{"ccnuma/internal/topology.", "core"},
		{"ccnuma/internal/report.", "report"},
		{"ccnuma/internal/tracesim.", "tracesim"},
		{"ccnuma/internal/trace.", "tracesim"},
		{"ccnuma/internal/serve.", "serve"},
		{"main.", "bench"},
	}
	for _, p := range pkgs {
		if strings.HasPrefix(fn, p.prefix) {
			return p.layer
		}
	}
	return ""
}

// layerOfStack attributes one profile sample, frames leaf first, to the
// module of its innermost module frame: JSON encoding a handler does counts
// as serve, an allocation NewSystem makes counts as core. Samples with no
// module frame count as runtime or other by their leaf.
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		if l := moduleOf(fn); l != "" {
			return l
		}
	}
	if len(frames) > 0 && strings.HasPrefix(frames[0], "runtime.") {
		return "runtime"
	}
	return "other"
}

// cpuShares rolls CPU profiles up by layer with the toolchain's
// `go tool pprof -traces` (several profiles are merged) and returns every
// layer's share of all samples.
func cpuShares(profiles ...string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, profiles...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	byLayer := map[string]time.Duration{}
	var total, value time.Duration
	var frames []string
	flush := func() {
		if value > 0 {
			byLayer[layerOfStack(frames)] += value
			total += value
		}
		value, frames = 0, frames[:0]
	}
	inSample := false // past the header, inside the sample blocks
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			continue
		}
		f := strings.Fields(line)
		if !inSample || len(f) == 0 {
			continue
		}
		if value == 0 {
			// A sample's first line holds its value and its leaf frame.
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("go tool pprof: unparsed sample line %q", line)
			}
			value = d
			f = f[1:]
		}
		frames = append(frames, f[0])
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %v", profiles)
	}
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l] = byLayer[l].Seconds() / total.Seconds()
	}
	return shares, nil
}
