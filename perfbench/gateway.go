package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diffkv"
	"diffkv/internal/httpapi"
)

// gatewayScenario is the stack behind the gateway: a copy of
// testdata/scenario_gateway.json without its listen address, so the
// program's own trace collector and telemetry center run as they do
// under cmd/diffkv-gateway. It is copied, not read, so that editing the
// test scenario does not change the benchmark.
const gatewayScenario = `{
  "name": "gateway-smoke",
  "model": "Llama3-8B",
  "method": "DiffKV",
  "mem_frac": 0.3,
  "max_gen_len": 512,
  "workload": {"bench": "MATH"},
  "observability": {
    "debug": true,
    "sample_interval_ms": 100,
    "slos": [
      {"metric": "ttft", "pctl": 95, "target_sec": 2},
      {"metric": "goodput", "floor_tokens_per_sec": 1}
    ]
  },
  "seed": 42
}`

const (
	// gatewayClients is the closed loop's client count, one per CPU of
	// the 2-CPU host the bounds were set on.
	gatewayClients = 2
	// gatewayMaxTokens is every request's output length.
	gatewayMaxTokens = 32
	// gatewaySetups is how many times a run sets the gateway up. In a
	// timed run each set-up serves an equal share of the measured time
	// on fresh connections, so the run's figures come from several
	// gateways rather than one; in a traced run the last one serves.
	gatewaySetups = 5
	// gatewayWarmup runs on every set-up before it is measured so
	// connections are open and lazy set-up is done.
	gatewayWarmup = 500 * time.Millisecond
	// gatewayWindow is the longest measured window. req_per_s is the
	// median of the windows' rates, as the batch workloads report the
	// median of their iterations, so a slow spell of the host shorter
	// than half the run does not move it. A traced run alternates
	// untraced and traced windows of this length.
	gatewayWindow = time.Second
)

type gatewayWorkload struct{ scenario diffkv.Scenario }

func gatewaySpec() *gatewayWorkload {
	sc, err := diffkv.ParseScenario([]byte(gatewayScenario))
	if err != nil {
		panic(fmt.Sprintf("gateway scenario: %v", err)) // a constant: only a bug gets here
	}
	return &gatewayWorkload{scenario: *sc}
}

// gateway is one running gateway: the serving loop behind httpapi on a
// loopback listener.
type gateway struct {
	loop    *diffkv.Loop
	srv     *http.Server
	url     string
	served  chan error
	prompts []int
	counter *eventCounter // traced runs only
}

// setupTimes are one gateway set-up's phases.
type setupTimes struct{ build, gen, listen time.Duration }

func (s setupTimes) total() time.Duration { return s.build + s.gen + s.listen }

// start builds the stack, generates n prompt lengths from the seed and
// starts the loop and the HTTP server on a loopback port. Traced, a
// counting tracer sits in front of the program's collector and the
// handler is wrapped in spans.
func (w *gatewayWorkload) start(seed uint64, n int, tr *gatewayTracing) (*gateway, setupTimes, error) {
	var t setupTimes
	g := &gateway{served: make(chan error, 1)}
	sc := w.scenario
	obs := sc.Observability
	col := diffkv.NewTraceCollector(obs.TraceEvents)
	sc.Tracer = col
	if tr != nil {
		g.counter = newEventCounter(col)
		g.counter.setOn(false)
		sc.Tracer = g.counter
	}

	t0 := time.Now()
	st, err := sc.Build()
	if err != nil {
		return nil, t, err
	}
	t1 := time.Now()
	for _, r := range diffkv.NewRequestGen(st.Benchmark, st.Scenario.MaxGenLen, seed).Batch(n) {
		g.prompts = append(g.prompts, r.PromptLen)
	}
	t2 := time.Now()
	g.loop = st.StartLoop(diffkv.LoopConfig{})
	api, err := httpapi.New(httpapi.Config{
		Loop:             g.loop,
		ModelName:        st.Model.Name,
		DefaultMaxTokens: 64,
		Telemetry:        st.Telemetry,
		Trace:            col,
		Pprof:            obs.Debug,
	})
	if err == nil {
		var ln net.Listener
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err == nil {
			g.serve(ln, api.Handler(), tr)
		}
	}
	if err != nil {
		_ = g.loop.Shutdown(context.Background()) // the set-up error is the one to report
		return nil, t, err
	}
	t3 := time.Now()
	t = setupTimes{build: t1.Sub(t0), gen: t2.Sub(t1), listen: t3.Sub(t2)}
	if tr != nil {
		tr.spans.add("setup.build", 0, 0, t0, t1)
		tr.spans.add("setup.requests", 0, 0, t1, t2)
		tr.spans.add("setup.listen", 0, 0, t2, t3)
	}
	return g, t, nil
}

// serve starts the HTTP server on ln; stop waits for it to return.
func (g *gateway) serve(ln net.Listener, h http.Handler, tr *gatewayTracing) {
	if tr != nil {
		h = &spanHandler{next: h, tr: tr}
	}
	g.srv = &http.Server{Handler: h}
	g.url = "http://" + ln.Addr().String() + "/v1/completions"
	go func() { g.served <- g.srv.Serve(ln) }()
}

// stop drains the loop, closes the server and waits for it to return.
func (g *gateway) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := g.loop.Shutdown(ctx)
	if serr := g.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-g.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// gatewayTracing is the traced run's state: spans, the profile, and the
// switch that turns span recording on for traced windows.
type gatewayTracing struct {
	spans *spanLog
	prof  *profiler
	on    atomic.Bool
}

// spanHandler records one span per request around the gateway's
// handler while tracing is on. Its parent is the client's request
// span, whose ID the client sends in a header.
type spanHandler struct {
	next http.Handler
	tr   *gatewayTracing
}

const (
	spanHeader = "X-Perfbench-Span"
	reqHeader  = "X-Perfbench-Request"
)

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader)) // absent: a root span
	req, _ := strconv.Atoi(r.Header.Get(reqHeader))
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.tr.spans.add("httpapi.handler", parent, req, start, time.Now())
}

// window is what one closed-loop window measured.
type window struct {
	attempted, failed int
	wall              time.Duration
	ttftMs            []float64
	failures          []string
}

func (w window) completed() int { return w.attempted - w.failed }

func (w window) rate() float64 { return float64(w.completed()) / w.wall.Seconds() }

// clientPool is the closed loop's clients: each keeps one connection
// and sends its next request only after the previous stream ended.
// They take requests from one ordered queue.
type clientPool struct {
	clients []*http.Client
	next    atomic.Int64
}

func newClientPool(n int) *clientPool {
	p := &clientPool{}
	for i := 0; i < n; i++ {
		p.clients = append(p.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return p
}

func (p *clientPool) close() {
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
}

// run drives the gateway for d: every client loops over the queue until
// d has passed, and the window ends when the last stream has ended.
// Traced, each request gets a client span.
func (p *clientPool) run(g *gateway, d time.Duration, tr *gatewayTracing) window {
	var mu sync.Mutex
	var win window
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(p.next.Add(1) - 1)
				prompt := g.prompts[i%len(g.prompts)]
				ttft, err := request(c, g.url, i+1, prompt, gatewayMaxTokens, tr)
				mu.Lock()
				win.attempted++
				if err != nil {
					win.failed++
					if len(win.failures) < 5 {
						win.failures = append(win.failures, err.Error())
					}
				} else {
					win.ttftMs = append(win.ttftMs, float64(ttft)/1e6)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	win.wall = time.Since(start)
	return win
}

// request sends one streaming completion and checks the stream. It
// returns the time from sending to the first SSE data chunk.
func request(c *http.Client, url string, id, prompt, maxTokens int, tr *gatewayTracing) (time.Duration, error) {
	body := fmt.Sprintf(`{"prompt_tokens":%d,"max_tokens":%d,"stream":true}`, prompt, maxTokens)
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	spanID := 0
	if tr != nil && tr.on.Load() {
		spanID = tr.spans.open("client.request", 0, id)
		defer tr.spans.close(spanID)
		req.Header.Set(spanHeader, strconv.Itoa(spanID))
		req.Header.Set(reqHeader, strconv.Itoa(id))
	}
	sent := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	return readSSE(resp.Body, maxTokens, sent)
}

// readSSE consumes one completion stream and checks it: at least one
// data chunk, a final chunk whose usage.completion_tokens equals
// maxTokens, and a closing [DONE]. It returns the time from sent to the
// first data chunk.
func readSSE(body io.Reader, maxTokens int, sent time.Time) (time.Duration, error) {
	br := bufio.NewReader(body)
	var ttft time.Duration
	var last []byte
	done := false
	for {
		line, err := br.ReadSlice('\n')
		if payload, ok := bytes.CutPrefix(bytes.TrimRight(line, "\r\n"), []byte("data: ")); ok {
			if ttft == 0 {
				ttft = time.Since(sent)
			}
			if done {
				return 0, errors.New("data after [DONE]")
			}
			if string(payload) == "[DONE]" {
				done = true
			} else {
				last = append(last[:0], payload...)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("read stream: %w", err)
		}
	}
	if !done {
		return 0, errors.New("stream ended without [DONE]")
	}
	var final struct {
		Usage *struct {
			CompletionTokens int `json:"completion_tokens"`
		} `json:"usage"`
	}
	if err := json.Unmarshal(last, &final); err != nil {
		return 0, fmt.Errorf("final chunk: %w", err)
	}
	if final.Usage == nil || final.Usage.CompletionTokens != maxTokens {
		return 0, fmt.Errorf("final chunk does not report %d completion tokens", maxTokens)
	}
	return ttft, nil
}

// freshStart starts the gateway as a fresh process would: without heap
// memory a previous set-up freed.
func (w *gatewayWorkload) freshStart(seed uint64, n int, tr *gatewayTracing) (*gateway, setupTimes, error) {
	debug.FreeOSMemory()
	return w.start(seed, n, tr)
}

// setUp starts the gateway gatewaySetups times, stopping all but the
// last, and returns the last with every set-up's time in seconds.
func (w *gatewayWorkload) setUp(seed uint64, n int, tr *gatewayTracing) (*gateway, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		g, t, err := w.freshStart(seed, n, tr)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, t.total().Seconds())
		if i == gatewaySetups-1 {
			return g, setups, nil
		}
		if err := g.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// timedRun is what the set-ups of a timed run measured together.
type timedRun struct {
	setups, rates, ttftMs, heapMB []float64
	steps                         int
}

// serveShare starts one gateway, warms it up on fresh connections,
// serves it for d in equal windows of at most gatewayWindow and stops
// it.
// The live heap is read once serving ends: the trace ring and latency
// windows are full and the sessions reaped, so that is the steady
// state. Every request, the warm-up's too, goes to add.
func (w *gatewayWorkload) serveShare(seed uint64, n int, d time.Duration, tr *timedRun, add func(window)) error {
	g, t, err := w.freshStart(seed, n, nil)
	if err != nil {
		return err
	}
	tr.setups = append(tr.setups, t.total().Seconds())
	pool := newClientPool(gatewayClients)
	defer pool.close()
	add(pool.run(g, gatewayWarmup, nil))
	runtime.GC()
	peak := startHeapPeak(false)
	windows := max(1, int((d+gatewayWindow-1)/gatewayWindow))
	for range windows {
		win := pool.run(g, d/time.Duration(windows), nil)
		add(win)
		tr.rates = append(tr.rates, win.rate())
		tr.ttftMs = append(tr.ttftMs, win.ttftMs...)
	}
	tr.heapMB = append(tr.heapMB, float64(peak.end())/(1<<20))
	tr.steps += g.loop.Metrics().Steps
	return g.stop()
}

// runGateway sets the gateway up, warms it up (its requests are checked
// too) and measures. A timed run serves an equal share of the measured
// time on each of gatewaySetups set-ups; a traced run alternates
// untraced and traced windows on one.
func runGateway(w *gatewayWorkload, o runOpts) (*report, error) {
	rep := newReport()
	add := func(win window) {
		rep.attempted += win.attempted
		rep.failed += win.failed
		rep.completed += win.completed()
		for _, f := range win.failures {
			rep.notef("failed request: %s", f)
		}
	}
	// enough prompts that a fast run does not revisit them
	n := int(o.seconds*2000) + 4000
	measure := time.Duration(o.seconds * float64(time.Second))
	if !o.traced {
		var t timedRun
		for i := 0; i < gatewaySetups; i++ {
			if err := w.serveShare(o.seed, n, measure/gatewaySetups, &t, add); err != nil {
				return nil, err
			}
		}
		rep.set("req_per_s", median(t.rates), "req/s")
		rep.set("setup_s", median(t.setups), "s")
		rep.set("peak_heap_mb", median(t.heapMB), "MB")
		rep.set("ttft_p50_ms", median(t.ttftMs), "ms")
		rep.set("ttft_p99_ms", quantile(t.ttftMs, 0.99), "ms")
		rep.notef("samples: %d set-ups (setup_s, peak_heap_mb), %d windows (req_per_s), %d requests (ttft), %d loop steps",
			len(t.setups), len(t.rates), len(t.ttftMs), t.steps)
		return rep, nil
	}

	tr := &gatewayTracing{spans: newSpanLog(), prof: &profiler{}}
	g, _, err := w.setUp(o.seed, n, tr)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = g.stop() // the run already failed; its error is the one to report
		}
	}()
	runtime.GC()
	pool := newClientPool(gatewayClients)
	defer pool.close()
	add(pool.run(g, gatewayWarmup, nil))

	var plain, traced []float64
	var rt runtimeStats
	plainDone, tracedDone := 0, 0
	deadline := time.Now().Add(measure)
	for i := 0; len(plain) < 2 || len(traced) < 2 || time.Now().Before(deadline); i++ {
		if i%2 == 0 {
			before := readRuntimeStats()
			win := pool.run(g, gatewayWindow, nil)
			rt.add(before, readRuntimeStats())
			add(win)
			plain = append(plain, win.rate())
			plainDone += win.completed()
			continue
		}
		g.counter.setOn(true)
		tr.on.Store(true)
		if err := tr.prof.start(); err != nil {
			return nil, err
		}
		win := pool.run(g, gatewayWindow, tr)
		perr := tr.prof.stop()
		tr.on.Store(false)
		g.counter.setOn(false)
		if perr != nil {
			return nil, perr
		}
		add(win)
		traced = append(traced, win.rate())
		tracedDone += win.completed()
	}
	stats := g.loop.Metrics()
	stopped = true
	if err := g.stop(); err != nil {
		return nil, err
	}

	setPerLayerZero(rep)
	rep.set("setup.build_s", median(tr.spans.durations("setup.build")), "s")
	rep.set("setup.requests_s", median(tr.spans.durations("setup.requests")), "s")
	c := g.counter.snapshot()
	if tracedDone > 0 {
		rep.set("serving.steps", float64(c.steps)/float64(tracedDone), "1/req")
		rep.set("serving.preemptions", float64(c.preempts)/float64(tracedDone), "1/req")
		rep.set("trace.events", float64(c.events)/float64(tracedDone), "1/req")
	}
	if c.steps > 0 {
		rep.set("serving.batch_mean", float64(c.batchSum)/float64(c.steps), "count")
	}
	handler := tr.spans.durations("httpapi.handler")
	rep.set("httpapi.handler_ms.p50", 1e3*median(handler), "ms")
	rep.set("httpapi.handler_ms.p99", 1e3*quantile(handler, 0.99), "ms")
	if stats.Completed > 0 {
		rep.set("loop.steps_per_req", float64(stats.Steps)/float64(stats.Completed), "count")
	}
	rt.report(rep, plainDone)
	tr.prof.report(rep)
	rep.set("trace_overhead_frac", 1-median(traced)/median(plain), "frac")
	rep.notef("windows: %d untraced, %d traced; %d handler spans", len(plain), len(traced), len(handler))
	if err := writeTrace(o.outDir, "gateway-sse", o.seed, tr.spans, tr.prof); err != nil {
		return nil, err
	}
	return rep, nil
}
