package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a timed run (--trace 0), in the order of
// BENCHMARK.json. All are host wall-clock or host heap, never simulated
// time.
var endToEnd = []metricDef{
	{"req_per_s", "req/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"ttft_p50_ms", "ms"},
	{"ttft_p99_ms", "ms"},
}

// perLayer are the metrics of a traced run (--trace 1), in the order of
// BENCHMARK.json. Every workload reports all of them; a layer a
// workload never reaches reads 0 there. The *_frac metrics are shares
// of the traced serving's CPU profile samples attributed by Go package
// (README.md has the details).
var perLayer = []metricDef{
	{"setup.build_s", "s"},
	{"setup.requests_s", "s"},
	{"serving.gen_step_us.p50", "us"},
	{"serving.gen_step_us.p99", "us"},
	{"serving.prompt_step_us.p50", "us"},
	{"serving.prompt_step_us.p99", "us"},
	{"serving.steps", "1/req"},
	{"serving.batch_mean", "count"},
	{"serving.preemptions", "1/req"},
	{"serving.self_frac", "frac"},
	{"kvcache.self_frac", "frac"},
	{"kvcache.cum_frac", "frac"},
	{"offload.swap_outs", "count"},
	{"offload.swap_mb", "MB"},
	{"offload.cum_frac", "frac"},
	{"cluster.self_frac", "frac"},
	{"disagg.self_frac", "frac"},
	{"cluster.dispatches", "count"},
	{"cluster.rejects", "count"},
	{"disagg.transfers", "count"},
	{"disagg.wire_mb", "MB"},
	{"gpusim.self_frac", "frac"},
	{"httpapi.handler_ms.p50", "ms"},
	{"httpapi.handler_ms.p99", "ms"},
	{"httpapi.self_frac", "frac"},
	{"net.self_frac", "frac"},
	{"loop.self_frac", "frac"},
	{"loop.steps_per_req", "count"},
	{"trace.self_frac", "frac"},
	{"telemetry.self_frac", "frac"},
	{"trace.events", "1/req"},
	{"runtime.self_frac", "frac"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_mb_per_req", "MB"},
	{"runtime.gc_cycles", "1/kreq"},
	{"trace_overhead_frac", "frac"},
}

// setPerLayerZero sets every per-layer metric to 0 with its unit; the
// workload then overwrites the layers it reaches.
func setPerLayerZero(rep *report) {
	for _, m := range perLayer {
		rep.set(m.name, 0, m.unit)
	}
}
