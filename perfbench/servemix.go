package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ccnuma/internal/core"
	"ccnuma/internal/serve"
	"ccnuma/internal/workload"
)

const (
	// serveRate is the open-loop arrival rate: a few percent of one core
	// for hits, so the server is far from saturation and hit latency is the
	// request path itself, not a queue.
	serveRate = 250.0
	// One request in serveMissEvery carries a fresh seed and runs a
	// simulation; the rest come from the hot set. Spacing the misses evenly
	// fixes their count, so msteps_per_s always has its samples.
	serveMissEvery = 100
	// hotScale and missScale size the simulations behind the hot set and
	// the misses (tens of milliseconds each).
	hotScale  = 0.03
	missScale = 0.01
	// latencyLimit is the p99 limit goodput counts responses against.
	latencyLimit = 100 * time.Millisecond
	// reqHeader carries the request id to the wrapped handler.
	reqHeader = "X-Perfbench-Req"
)

// hotSeeds × the five workloads × both policies is the hot set: 30 keys,
// fewer than the server's 64 LRU entries, so after warm-up every hot
// request is a cache hit while misses churn the remaining entries.
var hotSeeds = []uint64{7, 8, 9}

type mixRequest struct {
	body []byte
	req  serve.Request
	hot  int // index into the hot set, -1 for a miss
}

func hotSet() []mixRequest {
	var out []mixRequest
	for _, seed := range hotSeeds {
		for _, wl := range workload.Names() {
			for _, pol := range fullsysPolicies {
				s := seed
				out = append(out, mixRequest{req: serve.Request{Workload: wl, Policy: pol, Scale: hotScale, Seed: &s}, hot: len(out)})
			}
		}
	}
	for i := range out {
		out[i].body = mustJSON(out[i].req)
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // a serve.Request always marshals
	}
	return b
}

// expectedBody runs the request in-process and renders it the way the
// server must: the bytes a 200 response has to equal. It also returns the
// simulation's steps.
func expectedBody(r serve.Request) ([]byte, uint64, error) {
	job, err := r.Build()
	if err != nil {
		return nil, 0, err
	}
	sys, err := core.NewSystem(job.Spec(), job.Opt)
	if err != nil {
		return nil, 0, err
	}
	res, err := sys.Run()
	if err != nil {
		return nil, 0, err
	}
	body, err := serve.ResultJSON(res)
	return body, res.Steps, err
}

// serveEnv is one numasimd handler on a loopback listener plus the client
// that drives it with at most nproc connections.
type serveEnv struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
	tr     *tracer

	mu      sync.Mutex
	handled map[int64]handled // by request id, when the handler is wrapped
}

// handled is one request's time inside the wrapped handler and its span.
type handled struct {
	dur  time.Duration
	span int
}

// newServeEnv starts a server. With tr set, the handler is wrapped to time
// each request and record its span.
func newServeEnv(nproc int, tr *tracer) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{
		srv: serve.New(serve.Config{}),
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		}},
		served:  make(chan error, 1),
		tr:      tr,
		handled: map[int64]handled{},
	}
	h := e.srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
			t0 := time.Now()
			sp := tr.begin("serve.handler", "serve", 0, id)
			inner.ServeHTTP(w, r)
			tr.end(sp)
			e.mu.Lock()
			e.handled[id] = handled{dur: time.Since(t0), span: sp}
			e.mu.Unlock()
		})
	}
	e.hs = &http.Server{Handler: h}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops the listener and the server and waits for both.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	e.srv.Shutdown()
	e.client.CloseIdleConnections()
	return err
}

// post sends one /run request and returns the status and body.
func (e *serveEnv) post(body []byte, id int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, e.url+"/run", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id > 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// health reads /healthz.
func (e *serveEnv) health() (hits, misses, rejected uint64, err error) {
	resp, err := e.client.Get(e.url + "/healthz")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Rejected uint64 `json:"rejected"`
		Cache    struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, 0, 0, err
	}
	return h.Cache.Hits, h.Cache.Misses, h.Rejected, nil
}

// warm requests every hot key once, filling the cache; each is a miss.
func (e *serveEnv) warm(hot []mixRequest, want [][]byte, o *outcome) error {
	for i, r := range hot {
		status, body, err := e.post(r.body, 0)
		if err != nil {
			return err
		}
		o.check(status == http.StatusOK && bytes.Equal(body, want[i]), "serve warm-up %d: status %d or body differs", i, status)
	}
	return nil
}

// mixStats is what one open-loop phase measured.
type mixStats struct {
	n, hits, misses, good int
	hitLat, missLat       []float64     // ms, from when each request was due
	missSteps             uint64        // simulated by the correctly answered misses
	missTime              time.Duration // their latencies, summed
	late                  []float64     // ms the generator sent each request after it was due
	handlerHit            []float64     // ms inside the wrapped handler (traced)
	outsideHit            []float64     // ms of client latency outside the handler (traced)
	elapsed               time.Duration
}

// drive runs one open-loop phase of length d: Poisson arrivals at
// serveRate drawn from seed, each sent when due by one of nproc client
// workers (one connection each). Misses use fresh seeds from *fresh.
func (e *serveEnv) drive(nproc int, seed uint64, d time.Duration, hot []mixRequest, hotWant [][]byte, fresh *uint64, o *outcome) (mixStats, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5e12e))
	missAt := rng.IntN(serveMissEvery)
	type item struct {
		due time.Duration
		req mixRequest
	}
	var items []item
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if t >= d {
			break
		}
		it := item{due: t, req: hot[rng.IntN(len(hot))]}
		if len(items)%serveMissEvery == missAt {
			*fresh++
			s := *fresh
			r := serve.Request{Workload: "engineering", Policy: "migrep", Scale: missScale, Seed: &s}
			it.req = mixRequest{req: r, body: mustJSON(r), hot: -1}
		}
		items = append(items, it)
	}

	type reply struct {
		status   int
		body     []byte
		err      error
		lat      time.Duration // due -> done
		sendDone time.Duration // send -> done
	}
	replies := make([]reply, len(items))
	late := make([]time.Duration, len(items))
	jobs := make(chan int, len(items)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sent := time.Now()
				status, body, err := e.post(items[i].req.body, int64(i+1))
				done := time.Now()
				replies[i] = reply{status: status, body: body, err: err,
					lat: done.Sub(start.Add(items[i].due)), sendDone: done.Sub(sent)}
			}
		}()
	}
	for i, it := range items {
		due := start.Add(it.due)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late[i] = time.Since(due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	st := mixStats{n: len(items), elapsed: time.Since(start)}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for i, it := range items {
		rp := replies[i]
		st.late = append(st.late, ms(late[i]))
		var want []byte
		var steps uint64
		if it.req.hot >= 0 {
			want = hotWant[it.req.hot]
		} else {
			b, n, err := expectedBody(it.req.req)
			if err != nil {
				return st, fmt.Errorf("serve-mix miss %d: %w", i, err)
			}
			want, steps = b, n
		}
		ok := rp.err == nil && rp.status == http.StatusOK && bytes.Equal(rp.body, want)
		o.check(ok, "serve-mix request %d: status %d err %v or body differs", i, rp.status, rp.err)
		if ok && it.req.hot < 0 {
			st.missSteps += steps
			st.missTime += rp.lat
		}
		if ok && rp.lat <= latencyLimit {
			st.good++
		}
		id := int64(i + 1)
		e.mu.Lock()
		hd, wrapped := e.handled[id]
		delete(e.handled, id)
		e.mu.Unlock()
		if it.req.hot >= 0 {
			st.hits++
			st.hitLat = append(st.hitLat, ms(rp.lat))
			if wrapped {
				st.handlerHit = append(st.handlerHit, ms(hd.dur))
				st.outsideHit = append(st.outsideHit, ms(rp.sendDone-hd.dur))
			}
		} else {
			st.misses++
			st.missLat = append(st.missLat, ms(rp.lat))
		}
		if e.tr != nil {
			due := start.Add(it.due).Sub(e.tr.epoch)
			c := e.tr.add(span{Name: "serve.request", Layer: "client", Start: due, End: due + rp.lat, Req: id, Lane: i + 1})
			if wrapped {
				e.tr.setParent(hd.span, c)
			}
		}
	}
	return st, nil
}

// serveSetup computes the hot set's expected bodies in-process (untimed),
// then times reps set-ups — a fresh server plus a warm-up that fills its
// cache with the hot set — and returns the last server, warm, with the
// median set-up time.
func serveSetup(cfg config, tr *tracer, reps int, o *outcome) (env *serveEnv, hot []mixRequest, want [][]byte, setup float64, err error) {
	hot = hotSet()
	for _, r := range hot {
		b, _, err := expectedBody(r.req)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		want = append(want, b)
	}
	var durs []float64
	for i := 0; i < reps; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, nil, nil, 0, err
			}
		}
		t0 := time.Now()
		env, err = newServeEnv(cfg.nproc, tr)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		if err := env.warm(hot, want, o); err != nil {
			env.close()
			return nil, nil, nil, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return env, hot, want, median(durs), nil
}

// freshBase starts the miss seeds of one invocation far above every seed
// the hot set or another invocation's seed uses.
func freshBase(seed uint64) uint64 { return 1<<40 | seed<<20 }

// serveBench is the serve-mix workload's untraced run.
func serveBench(cfg config, o *outcome) error {
	env, hot, want, setup, err := serveSetup(cfg, nil, setupReps, o)
	if err != nil {
		return err
	}
	fresh := freshBase(cfg.seed)
	st, err := env.drive(cfg.nproc, cfg.seed, cfg.seconds, hot, want, &fresh, o)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	hitP50, ok1 := percentile(st.hitLat, 0.50)
	missP50, ok2 := percentile(st.missLat, 0.50)
	if !ok1 || !ok2 {
		return fmt.Errorf("serve-mix: too few samples for the percentiles (%d hits, %d misses); raise --seconds", st.hits, st.misses)
	}
	if st.missTime <= 0 {
		return fmt.Errorf("serve-mix: no miss was answered correctly")
	}
	o.set("setup_s", setup, "s")
	o.set("latency_ms", hitP50, "ms")
	o.set("msteps_per_s", float64(st.missSteps)/st.missTime.Seconds()/1e6, "Msteps/s")
	o.set("goodput_per_s", float64(st.good)/st.elapsed.Seconds(), "1/s")
	// The hit tail does not repeat run to run (README.md); it is kept with
	// the run record, and the traced run reports serve.hit_p99_ms.
	hitP90, _ := percentile(st.hitLat, 0.90)
	hitP99, _ := percentile(st.hitLat, 0.99)
	lateP99, _ := percentile(st.late, 0.99)
	o.notes["serve"] = map[string]any{"requests": st.n, "hits": st.hits, "misses": st.misses,
		"good": st.good, "miss_p50_ms": missP50, "hit_p90_ms": hitP90, "hit_p99_ms": hitP99, "gen_late_p99_ms": lateP99,
		"rate_per_s": serveRate, "connections": cfg.nproc}
	return nil
}
