// Package sim is the discrete-event cluster simulator substrate.
//
// The paper's evaluation runs on a 20K-core HTCondor pool with 10 GbE and a
// Panasas shared filesystem. This package reproduces those experiments at
// laptop scale by moving the same scheduling state machines (internal/sched,
// internal/policy, internal/replica) through virtual time: nodes have disks
// and network links, transfers are fluid flows sharing link bandwidth
// max-min fairly, and tasks occupy cores for modeled durations. Only
// durations are modeled; every placement, transfer-routing, and limit
// decision is made by the production scheduling code.
package sim

import (
	"container/heap"
	"math"
)

// Engine is a virtual clock with an event heap.
type Engine struct {
	now   float64
	seq   int64
	queue eventHeap
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn at absolute time t (clamped to now).
func (e *Engine) At(t float64, fn func()) *Timer {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := &simEvent{t: t, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return &Timer{ev: ev}
}

// After schedules fn d seconds from now.
func (e *Engine) After(d float64, fn func()) *Timer {
	return e.At(e.now+d, fn)
}

// Timer allows cancelling a scheduled event.
type Timer struct{ ev *simEvent }

// Cancel prevents the event from firing; safe to call after it fired.
func (t *Timer) Cancel() {
	if t != nil && t.ev != nil {
		t.ev.cancelled = true
	}
}

// Run processes events until the queue is empty or the virtual clock would
// pass limit (<=0 means no limit). It returns the final virtual time.
// Events past the limit stay queued for a later Run.
func (e *Engine) Run(limit float64) float64 {
	for e.queue.Len() > 0 {
		ev := e.queue[0]
		if ev.cancelled {
			heap.Pop(&e.queue)
			continue
		}
		if limit > 0 && ev.t > limit {
			e.now = limit
			return e.now
		}
		heap.Pop(&e.queue)
		e.now = ev.t
		ev.fn()
	}
	return e.now
}

// Idle reports whether no events remain.
func (e *Engine) Idle() bool {
	for _, ev := range e.queue {
		if !ev.cancelled {
			return false
		}
	}
	return true
}

type simEvent struct {
	t         float64
	seq       int64
	fn        func()
	cancelled bool
	index     int
}

type eventHeap []*simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*simEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// almostEqual tolerates floating-point drift in flow accounting.
func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-6*(1+math.Abs(a)+math.Abs(b))
}
