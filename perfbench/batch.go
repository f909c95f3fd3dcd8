package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"diffkv"
)

// Sizes of the batch workloads. engine-swap serves one closed batch per
// iteration; cluster-disagg serves this many simulated seconds of
// Poisson arrivals per iteration.
const (
	engineSwapRequests    = 16
	clusterDisaggSeconds  = 240
	clusterDisaggRate     = 30
	clusterDisaggInstance = 16
)

// pinnedDigests are the simulated-schedule digests of the full-size
// batch workloads at defaultSeed. A run whose schedule hashes to
// anything else has changed the simulated output and counts as failed.
var pinnedDigests = map[string]string{
	"engine-swap":    "819544297fff45d43fdda92d8015f0bc",
	"cluster-disagg": "1ee208102b890316a819e5f8237b1e94",
}

// batchWorkload serves a fixed request set to completion on a freshly
// built stack per iteration: servers serve one run. The scenario only
// names the benchmark; requests generates the request set itself.
type batchWorkload struct {
	name     string
	scenario diffkv.Scenario
	requests func(b *diffkv.Benchmark, maxGenLen int, seed uint64) []diffkv.Request
	// cluster selects ClusterServer.Run; otherwise the single engine is
	// driven as Server.Run drives it (Submit every request, then Step
	// until no work is left).
	cluster bool
}

// engineSwap is one L40 Llama3-8B DiffKV page-manager engine serving a
// closed batch of n MATH chain-of-thought requests. Holding back 97% of
// post-weights memory oversubscribes KV, so preemption swaps sequences
// to an 8 GB host tier.
func engineSwap(n int) *batchWorkload {
	return &batchWorkload{
		name: "engine-swap",
		scenario: diffkv.Scenario{
			Model: "Llama3-8B", Method: "DiffKV", MaxGenLen: 4096,
			MemoryReserve: 0.97, Preemption: diffkv.PreemptSwap, HostMemoryGB: 8,
			Workload: diffkv.WorkloadSpec{Bench: "MATH"},
		},
		requests: func(b *diffkv.Benchmark, maxGenLen int, seed uint64) []diffkv.Request {
			return diffkv.NewRequestGen(b, maxGenLen, seed).CoTBatch(n)
		},
	}
}

// clusterDisagg is 16 traits-mode vLLM instances split 8:8 into prefill
// and decode pools with disagg-aware routing, serving open-loop Poisson
// MMLU arrivals below saturation for the given simulated seconds.
func clusterDisagg(seconds float64) *batchWorkload {
	return &batchWorkload{
		name: "cluster-disagg",
		scenario: diffkv.Scenario{
			Model: "Llama3-8B", Method: "vLLM",
			Workload:       diffkv.WorkloadSpec{Bench: "MMLU"},
			Cluster:        &diffkv.ClusterSpec{Instances: clusterDisaggInstance, Routing: diffkv.RouteDisaggAware},
			Disaggregation: &diffkv.DisaggSpec{PrefillPool: clusterDisaggInstance / 2, DecodePool: clusterDisaggInstance / 2},
		},
		requests: func(b *diffkv.Benchmark, maxGenLen int, seed uint64) []diffkv.Request {
			// a fixed count, so every seed has the same input size: the first
			// n arrivals of a longer Poisson stream
			n := int(clusterDisaggRate * seconds)
			reqs := diffkv.NewRequestGen(b, maxGenLen, seed).Poisson(clusterDisaggRate, 1.1*seconds)
			return reqs[:min(n, len(reqs))]
		},
		cluster: true,
	}
}

// iteration is what one batch iteration measured.
type iteration struct {
	build, gen, serve time.Duration
	attempted         int
	served
	peakHeap uint64
	rt       runtimeStats // over the serving
	digest   string
	// host time-to-first-token percentiles of the iteration's requests;
	// the per-request slices are dropped once summarized, so a run's heap
	// does not grow with its iterations
	ttftP50, ttftP99 float64
	ttftN            int
}

// served is the outcome of driving one request set.
type served struct {
	completed int
	recs      []schedRec
	steps     int
	// ttftMs is each request's host time from submission to the step
	// that produced its first token.
	ttftMs []float64
	// layer counters from the program's own results
	rejects, swapOuts, transfers int
	swapBytes, wireBytes         int64
	// simulated load of a cluster run, noted to show it is unsaturated
	simTTFTp99, utilization float64
	// paused is serving time spent in heap samples, left out of timings
	paused time.Duration
}

// tracing is the traced run's observation state, shared by its
// iterations.
type tracing struct {
	spans  *spanLog
	prof   *profiler
	counts counts
}

// iterate builds a stack, generates the requests and serves them. With
// tr nil nothing observes the serving but, when heap is set, the heap
// tracker (and, on a cluster, the schedule recorder the correctness
// check needs).
func (w *batchWorkload) iterate(seed uint64, tr *tracing, heap bool) (iteration, error) {
	var it iteration
	sc := w.scenario
	var counter *eventCounter
	var rec *scheduleRecorder
	if tr != nil {
		counter = newEventCounter(nil)
		sc.Tracer = counter
	}
	if w.cluster {
		rec = newScheduleRecorder(sc.Tracer)
		sc.Tracer = rec
	}
	parent := 0
	if tr != nil {
		parent = tr.spans.open("iteration", 0, 0)
		defer tr.spans.close(parent)
	}

	t0 := time.Now()
	st, err := sc.Build()
	if err != nil {
		return it, err
	}
	t1 := time.Now()
	reqs := w.requests(st.Benchmark, st.Scenario.MaxGenLen, seed)
	if rec != nil {
		rec.reserve(len(reqs))
	}
	t2 := time.Now()
	it.build, it.gen, it.attempted = t1.Sub(t0), t2.Sub(t1), len(reqs)
	if tr != nil {
		tr.spans.add("setup.build", parent, 0, t0, t1)
		tr.spans.add("setup.requests", parent, 0, t1, t2)
	}

	// start every iteration's serving from a collected heap so the peak
	// is the serving's own
	runtime.GC()
	var peak *heapPeak
	serveSpan := 0
	switch {
	case tr != nil:
		serveSpan = tr.spans.open("serve", parent, 0)
		if err := tr.prof.start(); err != nil {
			return it, err
		}
	case heap:
		// the engine's live heap is sampled at fixed steps; Run is opaque,
		// so a cluster's is read after every GC cycle
		peak = startHeapPeak(w.cluster)
	}
	before := readRuntimeStats()
	start := time.Now()
	if w.cluster {
		it.served, err = serveCluster(st, reqs, rec)
	} else {
		it.served, err = serveEngine(st, reqs, counter, tr, serveSpan, peak)
	}
	it.serve = time.Since(start) - it.paused
	it.rt.add(before, readRuntimeStats())
	switch {
	case peak != nil:
		it.peakHeap = peak.end()
		runtime.KeepAlive(st)
	case tr != nil:
		tr.spans.close(serveSpan)
		if perr := tr.prof.stop(); err == nil {
			err = perr
		}
		tr.counts.add(counter.snapshot())
	}
	if err != nil {
		return it, err
	}
	it.digest = digest(it.recs, it.steps)
	it.ttftP50, it.ttftP99, it.ttftN = median(it.ttftMs), quantile(it.ttftMs, 0.99), len(it.ttftMs)
	it.recs, it.ttftMs = nil, nil
	return it, nil
}

// maxEngineSteps bounds one engine drive like Server.Run bounds its
// drain, so a request that can never be served fails the run instead of
// spinning.
const maxEngineSteps = 20_000_000

// heapSampleSteps is how many engine steps apart engine-swap samples its
// live heap (about 50 samples per batch).
const heapSampleSteps = 100

// serveEngine submits the requests in arrival order from this goroutine
// and steps the engine until it has no work, as Server.Run does. It
// records the simulated clock and host time after every step, so each
// request's host time-to-first-token is the end of the first step whose
// clock reached its first-token time. Traced, every Step gets a span
// named after the step event the engine emitted during it. With peak
// set, the live heap is sampled every heapSampleSteps steps, outside the
// timings.
func serveEngine(st *diffkv.Stack, reqs []diffkv.Request, counter *eventCounter, tr *tracing, parent int, peak *heapPeak) (served, error) {
	type mark struct {
		clockUs float64
		at      time.Duration
	}
	var out served
	srv := st.Server
	start := time.Now()
	for _, r := range reqs {
		srv.Submit(r)
	}
	marks := make([]mark, 0, 1<<12)
	for srv.HasWork() {
		if len(marks) >= maxEngineSteps {
			return out, fmt.Errorf("engine still has work after %d steps", maxEngineSteps)
		}
		t0 := time.Now()
		comps, err := srv.Step()
		t1 := time.Now()
		if err != nil {
			return out, err
		}
		marks = append(marks, mark{float64(srv.Clock()), t1.Sub(start) - out.paused})
		if peak != nil && len(marks)%heapSampleSteps == 0 {
			out.paused += peak.sample()
		}
		if tr != nil {
			name := "serving.step"
			switch counter.takeLastStep() {
			case diffkv.TraceKindPromptStep:
				name = "serving.prompt_step"
			case diffkv.TraceKindGenStep:
				name = "serving.gen_step"
			}
			tr.spans.add(name, parent, 0, t0, t1)
		}
		for _, cp := range comps {
			out.recs = append(out.recs, schedRec{
				ID: cp.Req.ID, Inst: cp.Inst, FirstTokenUs: cp.FirstTokenUs, DoneUs: cp.DoneUs,
				Preemptions: cp.Preemptions, Attempts: cp.Attempts,
			})
		}
	}
	res := srv.Result()
	out.completed = res.Completed
	out.steps = res.PromptSteps + res.GenSteps
	out.swapOuts = res.Offload.SwapOuts
	out.swapBytes = res.Offload.SwapOutBytes
	for _, r := range out.recs {
		i := sort.Search(len(marks), func(i int) bool { return marks[i].clockUs >= r.FirstTokenUs })
		if i < len(marks) {
			out.ttftMs = append(out.ttftMs, float64(marks[i].at)/1e6)
		}
	}
	return out, nil
}

// serveCluster runs the request set through ClusterServer.Run; the
// schedule comes from the recorder the stack was built with.
func serveCluster(st *diffkv.Stack, reqs []diffkv.Request, rec *scheduleRecorder) (served, error) {
	var out served
	rec.start = time.Now()
	m, err := st.Cluster.Run(reqs)
	if err != nil {
		return out, err
	}
	out.recs, out.ttftMs = rec.schedule()
	out.steps = rec.steps
	out.completed = m.Completed
	out.rejects = m.Rejected
	out.simTTFTp99, out.utilization = m.TTFT.P99, m.MeanUtilization
	if d := m.Disagg; d != nil {
		out.transfers = d.Transfers
		out.wireBytes = d.KVBytesShipped
	}
	return out, nil
}

// minIterations is the fewest iterations a run makes whatever its
// length, so set-up time is always a median of several.
const minIterations = 3

// runBatch runs iterations until the measured time is spent. A timed run
// reports the end-to-end metrics; a traced run alternates untraced and
// traced iterations and reports the per-layer metrics.
func runBatch(w *batchWorkload, o runOpts) (*report, error) {
	rep := newReport()
	want := ""
	if o.seed == defaultSeed {
		want = pinnedDigests[w.name]
	}
	var tr *tracing
	if o.traced {
		tr = &tracing{spans: newSpanLog(), prof: &profiler{}}
	}
	var plain, traced []iteration
	var deadline time.Time
	// iteration 0 warms up (its schedule is checked, not measured); then
	// the measured iterations run until the measured time is spent
	for i := 0; ; i++ {
		enough := len(plain) >= minIterations
		if o.traced {
			enough = len(plain) >= 2 && len(traced) >= 2
		}
		if i == 1 {
			deadline = time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
		}
		if i > 1 && enough && !time.Now().Before(deadline) {
			break
		}
		var itTr *tracing
		if o.traced && i%2 == 0 && i > 0 {
			itTr = tr
		}
		it, err := w.iterate(o.seed, itTr, !o.traced)
		if err != nil {
			return nil, err
		}
		switch {
		case i == 0:
		case itTr == nil:
			plain = append(plain, it)
		default:
			traced = append(traced, it)
		}
		if want == "" {
			want = it.digest
		}
		rep.attempted += it.attempted
		rep.completed += it.completed
		bad := it.attempted - it.completed + it.rejects
		if it.digest != want {
			rep.notef("%s: iteration %d digest %s, want %s", w.name, i, it.digest, want)
			bad = it.attempted
		}
		rep.failed += bad
	}
	rep.notef("%s: seed %d digest %s over %d iterations (%d requests each)",
		w.name, o.seed, want, 1+len(plain)+len(traced), plain[0].attempted)
	if w.cluster {
		rep.notef("simulated: TTFT p99 %.3fs, mean utilization %.2f", plain[0].simTTFTp99, plain[0].utilization)
	}

	if !o.traced {
		reportEndToEnd(rep, plain)
		return rep, nil
	}
	setPerLayerZero(rep)
	build, gen := tr.spans.durations("setup.build"), tr.spans.durations("setup.requests")
	rep.set("setup.build_s", median(build), "s")
	rep.set("setup.requests_s", median(gen), "s")
	n := float64(len(traced))
	if !w.cluster {
		gens, prompts := tr.spans.durations("serving.gen_step"), tr.spans.durations("serving.prompt_step")
		rep.set("serving.gen_step_us.p50", 1e6*median(gens), "us")
		rep.set("serving.gen_step_us.p99", 1e6*quantile(gens, 0.99), "us")
		rep.set("serving.prompt_step_us.p50", 1e6*median(prompts), "us")
		rep.set("serving.prompt_step_us.p99", 1e6*quantile(prompts, 0.99), "us")
		rep.notef("step spans: %d gen, %d prompt", len(gens), len(prompts))
	}
	c := tr.counts
	var swapOuts, rejects, transfers, completed int
	var swapBytes, wireBytes int64
	for _, it := range traced {
		swapOuts += it.swapOuts
		swapBytes += it.swapBytes
		rejects += it.rejects
		transfers += it.transfers
		wireBytes += it.wireBytes
		completed += it.completed
	}
	rep.set("offload.swap_outs", float64(swapOuts)/n, "count")
	rep.set("offload.swap_mb", float64(swapBytes)/n/(1<<20), "MB")
	rep.set("cluster.rejects", float64(rejects)/n, "count")
	rep.set("disagg.transfers", float64(transfers)/n, "count")
	rep.set("disagg.wire_mb", float64(wireBytes)/n/(1<<20), "MB")
	if completed > 0 {
		rep.set("serving.steps", float64(c.steps)/float64(completed), "1/req")
		rep.set("serving.preemptions", float64(c.preempts)/float64(completed), "1/req")
		rep.set("trace.events", float64(c.events)/float64(completed), "1/req")
	}
	if c.steps > 0 {
		rep.set("serving.batch_mean", float64(c.batchSum)/float64(c.steps), "count")
	}
	rep.set("cluster.dispatches", float64(c.dispatches)/n, "count")
	// runtime counters come from the untraced iterations, so the
	// benchmark's own tracing does not count
	var rt runtimeStats
	plainDone := 0
	for _, it := range plain {
		rt.add(runtimeStats{}, it.rt)
		plainDone += it.completed
	}
	rt.report(rep, plainDone)
	tr.prof.report(rep)
	rep.set("trace_overhead_frac", 1-median(rates(traced))/median(rates(plain)), "frac")
	if err := writeTrace(o.outDir, w.name, o.seed, tr.spans, tr.prof); err != nil {
		return nil, err
	}
	return rep, nil
}

// rates returns each iteration's completed requests per host second of
// serving.
func rates(its []iteration) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = float64(it.completed) / it.serve.Seconds()
	}
	return out
}

// reportEndToEnd sets the end-to-end metrics of a timed batch run:
// medians over its iterations.
func reportEndToEnd(rep *report, its []iteration) {
	var setup, heap, p50, p99 []float64
	for _, it := range its {
		setup = append(setup, (it.build + it.gen).Seconds())
		heap = append(heap, float64(it.peakHeap)/(1<<20))
		p50 = append(p50, it.ttftP50)
		p99 = append(p99, it.ttftP99)
	}
	r := rates(its)
	rep.set("req_per_s", median(r), "req/s")
	rep.set("setup_s", median(setup), "s")
	rep.set("peak_heap_mb", median(heap), "MB")
	rep.set("ttft_p50_ms", median(p50), "ms")
	rep.set("ttft_p99_ms", median(p99), "ms")
	rep.notef("samples: %d iterations (medians), %d requests per iteration (ttft percentiles)", len(its), its[0].ttftN)
	rep.notef("iteration rates (req/s): q1 %.5g med %.5g q3 %.5g; heap (MB): q1 %.5g med %.5g q3 %.5g",
		quantile(r, .25), median(r), quantile(r, .75), quantile(heap, .25), median(heap), quantile(heap, .75))
}

// writeTrace stores a traced run's spans and CPU profiles under dir.
func writeTrace(dir, name string, seed uint64, spans *spanLog, prof *profiler) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := spans.write(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))); err != nil {
		return err
	}
	return prof.write(dir, name, seed)
}
