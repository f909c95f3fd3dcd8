package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"diffkv"
)

// span is one timed interval at a layer boundary, recorded by the
// traced run from outside the program: around a public call it makes.
// Times are nanoseconds since the run started; spans of one request
// share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int    `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run writes them out. It is
// safe for concurrent use (gateway handlers record from many
// goroutines).
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// open starts a span now and returns its ID for close and for children.
func (l *spanLog) open(name string, parent, req int) int {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: now})
	return len(l.spans)
}

// close ends span id now.
func (l *spanLog) close(id int) {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// add records a finished span whose name was known only at its end.
func (l *spanLog) add(name string, parent, req int, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(),
	})
}

// durations returns the durations of every span called name, in
// seconds.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// eventCounter is the benchmark's counting Tracer: it counts the
// events the serving stack emits by kind, sums step batch sizes, and
// remembers the kind of the latest step event so a span around one
// Engine.Step can be classed as a prompt or a generation step. Events
// are forwarded to next when it is set, so the program's own collector
// keeps working under it. While off it only forwards.
type eventCounter struct {
	next diffkv.Tracer

	mu       sync.Mutex
	on       bool
	kinds    map[diffkv.TraceKind]int
	events   int
	steps    int
	batchSum int
	lastStep diffkv.TraceKind
}

func newEventCounter(next diffkv.Tracer) *eventCounter {
	return &eventCounter{next: next, on: true, kinds: map[diffkv.TraceKind]int{}}
}

// Emit implements diffkv.Tracer.
func (c *eventCounter) Emit(ev diffkv.TraceEvent) {
	if c.next != nil {
		c.next.Emit(ev)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.on {
		return
	}
	c.events++
	c.kinds[ev.Kind]++
	if ev.Kind == diffkv.TraceKindPromptStep || ev.Kind == diffkv.TraceKindGenStep {
		c.steps++
		c.batchSum += ev.Batch
		c.lastStep = ev.Kind
	}
}

func (c *eventCounter) setOn(on bool) {
	c.mu.Lock()
	c.on = on
	c.mu.Unlock()
}

// takeLastStep returns the kind of the latest step event and clears it.
func (c *eventCounter) takeLastStep() diffkv.TraceKind {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.lastStep
	c.lastStep = ""
	return k
}

// counts is a snapshot of an eventCounter. A preemption is either a
// preempt event (recompute) or a swap_out event (swap to the host tier).
type counts struct {
	events, steps, batchSum, preempts, dispatches int
}

func (c *eventCounter) snapshot() counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return counts{
		events:     c.events,
		steps:      c.steps,
		batchSum:   c.batchSum,
		preempts:   c.kinds[diffkv.TraceKindPreempt] + c.kinds[diffkv.TraceKindSwapOut],
		dispatches: c.kinds[diffkv.TraceKindDispatch],
	}
}

func (a *counts) add(b counts) {
	a.events += b.events
	a.steps += b.steps
	a.batchSum += b.batchSum
	a.preempts += b.preempts
	a.dispatches += b.dispatches
}
