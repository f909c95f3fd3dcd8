package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// heapPeak tracks the high-water mark of the live heap: the bytes the
// collector found reachable. Readings come from a forced collection
// when tracking ends, so state still reachable at the end counts
// exactly, and either from a hook that runs after every GC cycle or
// from forced collections the caller asks for at fixed points of its
// work. The hook costs the measured code next to nothing but also
// counts what was allocated during each cycle's marking, which varies
// with timing; fixed points repeat exactly. The heap in use peaks near
// twice the live heap under the default GOGC.
type heapPeak struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

const heapLiveMetric = "/gc/heap/live:bytes"

// gcSentinel is an unreachable object whose finalizer runs after the GC
// cycle that finds it, and arms the next one.
type gcSentinel struct{ h *heapPeak }

// startHeapPeak starts tracking, after every GC cycle when everyGC is
// set.
func startHeapPeak(everyGC bool) *heapPeak {
	h := &heapPeak{}
	if everyGC {
		h.read()
		runtime.SetFinalizer(&gcSentinel{h}, afterGC)
	}
	return h
}

func afterGC(s *gcSentinel) {
	if s.h.stopped.Load() {
		return
	}
	s.h.read()
	runtime.SetFinalizer(&gcSentinel{s.h}, afterGC)
}

func (h *heapPeak) read() {
	s := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// sample forces a collection, reads the live heap and returns how long
// that took, so the caller can leave it out of its timings.
func (h *heapPeak) sample() time.Duration {
	start := time.Now()
	runtime.GC()
	h.read()
	return time.Since(start)
}

// end takes a last sample, stops tracking and returns the peak in
// bytes. The caller keeps what it measures reachable until end returns.
func (h *heapPeak) end() uint64 {
	h.sample()
	h.stopped.Store(true)
	return h.peak.Load()
}

// runtimeStats are the Go runtime counters read around a measured
// interval: GC and total CPU time, bytes allocated and GC cycles.
type runtimeStats struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	gcCycles        uint64
}

var runtimeStatNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntimeStats() runtimeStats {
	s := make([]metrics.Sample, len(runtimeStatNames))
	for i, n := range runtimeStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeStats{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		gcCycles:   s[3].Value.Uint64(),
	}
}

// add accumulates the difference end-start into r.
func (r *runtimeStats) add(start, end runtimeStats) {
	r.gcCPU += end.gcCPU - start.gcCPU
	r.totalCPU += end.totalCPU - start.totalCPU
	r.allocBytes += end.allocBytes - start.allocBytes
	r.gcCycles += end.gcCycles - start.gcCycles
}

// report sets the runtime-layer metrics, normalized by the requests
// completed over the same intervals.
func (r runtimeStats) report(rep *report, completed int) {
	frac := 0.0
	if r.totalCPU > 0 {
		frac = r.gcCPU / r.totalCPU
	}
	perReq := func(x float64) float64 {
		if completed == 0 {
			return 0
		}
		return x / float64(completed)
	}
	rep.set("runtime.gc_cpu_frac", frac, "frac")
	rep.set("runtime.alloc_mb_per_req", perReq(float64(r.allocBytes)/(1<<20)), "MB")
	rep.set("runtime.gc_cycles", perReq(1000*float64(r.gcCycles)), "1/kreq")
}
