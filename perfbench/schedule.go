package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"time"

	"diffkv"
)

// schedRec is one completed request of a simulated schedule: what the
// digest covers.
type schedRec struct {
	ID, Inst             int
	FirstTokenUs, DoneUs float64
	Preemptions          int
	Attempts             int
}

// digest hashes a simulated schedule: every completion in completion
// order plus the step count. Two runs with the same digest produced the
// same simulated output.
func digest(recs []schedRec, steps int) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range recs {
		put(uint64(r.ID))
		put(uint64(r.Inst))
		put(math.Float64bits(r.FirstTokenUs))
		put(math.Float64bits(r.DoneUs))
		put(uint64(r.Preemptions))
		put(uint64(r.Attempts))
	}
	put(uint64(steps))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// scheduleRecorder is a Tracer that rebuilds the simulated schedule of
// a ClusterServer.Run, which returns only aggregates, from its events,
// and stamps host times on dispatch and first token so host
// time-to-first-token can be measured. It indexes requests by ID, so
// the IDs must lie in [1, n]. Events are forwarded to next when set.
type scheduleRecorder struct {
	next  diffkv.Tracer
	start time.Time
	recs  []recState
	order []int
	steps int
}

type recState struct {
	schedRec
	firstSeen, done bool
	dispatchAt      time.Duration
	firstAt         time.Duration
}

func newScheduleRecorder(next diffkv.Tracer) *scheduleRecorder {
	return &scheduleRecorder{next: next}
}

// reserve sizes the recorder for request IDs up to n.
func (s *scheduleRecorder) reserve(n int) {
	s.recs = make([]recState, n+1)
	s.order = make([]int, 0, n)
}

// Emit implements diffkv.Tracer. The cluster emits from the goroutine
// that calls Run, so no locking is needed.
func (s *scheduleRecorder) Emit(ev diffkv.TraceEvent) {
	if s.next != nil {
		s.next.Emit(ev)
	}
	switch ev.Kind {
	case diffkv.TraceKindPromptStep, diffkv.TraceKindGenStep:
		s.steps++
		return
	case diffkv.TraceKindDispatch, diffkv.TraceKindPreempt, diffkv.TraceKindSwapOut, diffkv.TraceKindFirstToken, diffkv.TraceKindComplete:
	default:
		return
	}
	if ev.Seq <= 0 {
		return
	}
	for ev.Seq >= len(s.recs) {
		s.recs = append(s.recs, recState{})
	}
	r := &s.recs[ev.Seq]
	r.ID = ev.Seq
	switch ev.Kind {
	case diffkv.TraceKindDispatch:
		if r.Attempts == 0 {
			r.dispatchAt = time.Since(s.start)
		}
		r.Attempts++
	case diffkv.TraceKindPreempt, diffkv.TraceKindSwapOut:
		r.Preemptions++
	case diffkv.TraceKindFirstToken:
		if !r.firstSeen {
			r.firstSeen = true
			r.FirstTokenUs = ev.TimeUs
			r.firstAt = time.Since(s.start)
		}
	case diffkv.TraceKindComplete:
		// a disaggregated request completes its prefill child on the
		// prefill instance first; the last completion is the request's
		r.DoneUs, r.Inst = ev.TimeUs, ev.Inst
		if !r.done {
			r.done = true
			s.order = append(s.order, ev.Seq)
		}
	}
}

// schedule returns the completed requests in first-completion order,
// and their host time-to-first-token in milliseconds.
func (s *scheduleRecorder) schedule() ([]schedRec, []float64) {
	recs := make([]schedRec, len(s.order))
	ttft := make([]float64, 0, len(s.order))
	for i, id := range s.order {
		r := s.recs[id]
		recs[i] = r.schedRec
		if r.firstSeen {
			ttft = append(ttft, float64(r.firstAt-r.dispatchAt)/1e6)
		}
	}
	return recs, ttft
}
