// Package sim is the discrete-event cluster simulator substrate.
//
// The paper's evaluation runs on a 20K-core HTCondor pool with 10 GbE and a
// Panasas shared filesystem. This package reproduces those experiments at
// laptop scale by moving the same scheduling state machines (internal/sched,
// internal/policy, internal/replica) through virtual time: nodes have disks
// and network links, transfers are fluid flows whose rates are set by
// per-endpoint shares (see Network for the sharing rule), and tasks occupy
// cores for modeled durations. Only durations are modeled; every placement,
// transfer-routing, and limit decision is made by the production scheduling
// code.
package sim

import (
	"math"
)

// Engine is a virtual clock with an event heap.
//
// Event records are recycled through a free list, and the heap holds only
// live events: Cancel removes its event in place. Callers on the hot path
// schedule a callback bound once plus an integer argument (Call, CallAt),
// so a steady-state run allocates nothing per event.
type Engine struct {
	now float64
	seq int64
	// heap orders the live events by (t, seq); each entry carries its key
	// so comparisons never leave the slice.
	heap []heapEntry
	// events holds the event records by slot; free lists the unused ones.
	events []simEvent
	free   []int32
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn at absolute time t (clamped to now). It allocates a
// closure per call; the hot paths use CallAt.
func (e *Engine) At(t float64, fn func()) Timer {
	return e.CallAt(t, func(int) { fn() }, 0)
}

// After schedules fn d seconds from now.
func (e *Engine) After(d float64, fn func()) Timer {
	return e.At(e.now+d, fn)
}

// CallAt schedules fn(arg) at absolute time t (clamped to now); every call
// takes exactly one sequence number. fn is meant to be bound once and arg
// to name what the event concerns, so scheduling allocates no closure.
func (e *Engine) CallAt(t float64, fn func(int), arg int) Timer {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var slot int32
	if n := len(e.free); n > 0 {
		slot, e.free = e.free[n-1], e.free[:n-1]
	} else {
		slot = int32(len(e.events))
		e.events = append(e.events, simEvent{})
	}
	pos := int32(len(e.heap))
	e.events[slot] = simEvent{seq: e.seq, fn: fn, arg: arg, pos: pos}
	e.heap = append(e.heap, heapEntry{t: t, seq: e.seq, slot: slot})
	e.up(int(pos))
	return Timer{e: e, slot: slot, seq: e.seq}
}

// Call schedules fn(arg) d seconds from now.
func (e *Engine) Call(d float64, fn func(int), arg int) Timer {
	return e.CallAt(e.now+d, fn, arg)
}

// Timer names one scheduled event. It is a value: a handle whose event has
// fired or been cancelled is stale, and a stale handle never touches the
// record's next event, since every event carries its own sequence number.
type Timer struct {
	e    *Engine
	slot int32
	seq  int64
}

// Cancel prevents the event from firing, removing it from the heap; safe
// to call after it fired or was cancelled, and on the zero Timer.
func (t Timer) Cancel() {
	if t.e != nil && t.seq != 0 && t.e.events[t.slot].seq == t.seq {
		t.e.remove(t.slot)
	}
}

// Run processes events until the queue is empty or the virtual clock would
// pass limit (<=0 means no limit). It returns the final virtual time.
// Events past the limit stay queued for a later Run.
func (e *Engine) Run(limit float64) float64 {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if limit > 0 && top.t > limit {
			e.now = limit
			return e.now
		}
		ev := e.events[top.slot]
		e.remove(top.slot)
		e.now = top.t
		ev.fn(ev.arg)
	}
	return e.now
}

// Idle reports whether no events remain.
func (e *Engine) Idle() bool { return len(e.heap) == 0 }

// simEvent is one event record: the callback, and the event's position in
// the heap while it is queued. seq is zero once the record is free.
type simEvent struct {
	seq int64
	fn  func(int)
	arg int
	pos int32
}

type heapEntry struct {
	t    float64
	seq  int64
	slot int32
}

func (a heapEntry) less(b heapEntry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// remove takes a queued event out of the heap and frees its record.
func (e *Engine) remove(slot int32) {
	i := int(e.events[slot].pos)
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
		e.events[e.heap[i].slot].pos = int32(i)
	}
	e.heap = e.heap[:last]
	if i != last {
		e.fix(i)
	}
	e.events[slot] = simEvent{}
	e.free = append(e.free, slot)
}

// fix restores the heap order around entry i after its key changed.
func (e *Engine) fix(i int) {
	if !e.down(i) {
		e.up(i)
	}
}

func (e *Engine) up(i int) {
	h := e.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		e.events[h[i].slot].pos = int32(i)
		i = p
	}
	h[i] = x
	e.events[x.slot].pos = int32(i)
}

// down sifts entry i towards the leaves and reports whether it moved.
func (e *Engine) down(i0 int) bool {
	h := e.heap
	n := len(h)
	x := h[i0]
	i := i0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && h[r].less(h[l]) {
			c = r
		}
		if !h[c].less(x) {
			break
		}
		h[i] = h[c]
		e.events[h[i].slot].pos = int32(i)
		i = c
	}
	h[i] = x
	e.events[x.slot].pos = int32(i)
	return i > i0
}

// almostEqual tolerates floating-point drift in flow accounting.
func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-6*(1+math.Abs(a)+math.Abs(b))
}
