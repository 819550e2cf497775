package sched

import (
	"slices"
	"time"

	"taskvine/internal/chaos"
	"taskvine/internal/replica"
	"taskvine/internal/taskspec"
)

// Failure handling: the paper's one recovery rule (§2.2) — when a worker
// leaves, its tasks go back to the queue and the producer of a lost temp
// runs again — plus transfer retry with backoff. Substrates report what
// happened (TransferFailed, TransferLanded, WorkerLost) and keep only their
// I/O and trace events behind Substrate.Requeue.

// Transfer retries are accounted per placement, a file at one destination,
// apart from task retries: a task never spends its retry budget because the
// network failed while it staged. A placement that fails more than
// TransferRetryLimit times is abandoned; before that, each failure closes
// it for a capped exponential backoff (chaos.Backoff) between
// TransferBackoffBase and TransferBackoffMax.
const (
	TransferRetryLimit  = 4
	TransferBackoffBase = 100 * time.Millisecond
	TransferBackoffMax  = 5 * time.Second
)

// Placement is a file at one destination worker.
type Placement struct {
	File   replica.FileH
	Worker replica.WorkerH
}

// Retry is a placement's failure record: the failures so far and the
// substrate time, in seconds, before which no transfer may start.
type Retry struct {
	Attempts  int
	NotBefore float64
}

// Retries returns the retry table. Callers must not modify it.
func (e *Engine) Retries() map[Placement]Retry { return e.retries }

// StartTransfer starts a planned transfer through the substrate, unless
// its placement is inside a backoff window. A refused start is unsettled:
// no table mutation signals the window opening, so the plan stays on the
// replan list, and Reopens tells a substrate without a tick when to pass.
func (e *Engine) StartTransfer(f replica.FileH, src replica.Source, dest replica.WorkerH) (settled bool) {
	if len(e.retries) > 0 {
		if r, ok := e.retries[Placement{f, dest}]; ok && e.sub.Now() < r.NotBefore {
			if e.reopen == 0 || r.NotBefore < e.reopen {
				e.reopen = r.NotBefore
			}
			return false
		}
	}
	return e.sub.StartTransfer(f, src, dest)
}

// Reopens returns when the earliest backoff window that refused a start
// since the last pass began opens, or zero if none did.
func (e *Engine) Reopens() float64 { return e.reopen }

// TransferFailed records a failed transfer of f to w. Up to the limit it
// closes the placement for a backoff and returns the attempt number and
// the wait. Past it, it abandons the placement, returning a zero wait:
// the staging tasks at w that wait on f go back to the queue without using
// their task retries, so the scheduler can place them where the data can
// arrive.
func (e *Engine) TransferFailed(f replica.FileH, w replica.WorkerH) (attempt int, wait time.Duration) {
	p := Placement{f, w}
	r := e.retries[p]
	r.Attempts++
	if r.Attempts > TransferRetryLimit {
		delete(e.retries, p)
		e.vm.TransferAbandonments.Inc()
		e.requeueOn(w, func(t *Task) bool {
			return t.State == taskspec.StateStaging && slices.Contains(t.Inputs, f)
		})
		return r.Attempts, 0
	}
	names := e.view.Reps.Names()
	wait = chaos.Backoff(TransferBackoffBase, TransferBackoffMax, r.Attempts, 0,
		names.Files.Name(f)+"|"+names.Workers.Name(w))
	r.NotBefore = e.sub.Now() + wait.Seconds()
	e.retries[p] = r
	return r.Attempts, wait
}

// TransferLanded forgets a placement's failures once a transfer lands.
func (e *Engine) TransferLanded(f replica.FileH, w replica.WorkerH) {
	if len(e.retries) > 0 {
		delete(e.retries, Placement{f, w})
	}
}

// WorkerLost handles worker w leaving the cluster. It drops w from the
// live view, its replicas and the transfers to or from it, with the
// pending replica of a receiver w was serving, so planning picks a new
// source at once; and it forgets w's retry rows. It then hands w's
// staging, running and returning tasks to Substrate.Requeue in ID order,
// and re-executes the producer of each temp whose last replica w held. It
// returns the files that lost a replica, sorted by name, and the
// cancelled transfers.
func (e *Engine) WorkerLost(w replica.WorkerH) (affected []replica.FileH, cancelled []replica.Transfer) {
	e.leave(w)
	affected = e.view.Reps.DropWorker(w)
	cancelled = e.view.Trs.DropWorker(w)
	for _, tr := range cancelled {
		if tr.Dest != w {
			e.view.Reps.Remove(tr.File, tr.Dest)
		}
	}
	for p := range e.retries {
		if p.Worker == w {
			delete(e.retries, p)
		}
	}
	e.requeueOn(w, func(t *Task) bool {
		s := t.State
		return s == taskspec.StateStaging || s == taskspec.StateRunning || s == taskspec.StateReturning
	})
	for _, f := range affected {
		e.recover(f, w, false)
	}
	return affected, cancelled
}

// requeueOn hands the tasks at worker w for which ok holds to
// Substrate.Requeue, in ID order.
func (e *Engine) requeueOn(w replica.WorkerH, ok func(*Task) bool) {
	ids := e.sub.OnWorker(e.ids[:0], w)
	slices.Sort(ids)
	e.ids = ids
	for _, id := range ids {
		if t := e.sub.Task(id); t != nil && ok(t) {
			e.sub.Requeue(id, 0, 0)
		}
	}
}

// inputsExist reports whether every input of t exists or can: it has a
// ready replica, a fixed source or a MiniTask to unpack it from. An input
// with none of these waits on its producer; if it is lost, t's need
// re-executes the producer.
func (e *Engine) inputsExist(t *Task) bool {
	for _, in := range t.Inputs {
		if e.view.Reps.CountReplicas(in) > 0 {
			continue
		}
		if n, mini, ok := e.sub.File(in); ok && (!n.FixedSource.IsZero() || mini != nil) {
			continue
		}
		e.recover(in, 0, true)
		return false
	}
	return true
}

// recover re-executes the done producer of f if f is lost — no ready
// replica, no transfer in flight, no fixed source — and still needed:
// asked by a waiting consumer, kept by the substrate (a replica goal), or
// read by a waiting, staging or running task. A returning task has already
// read its inputs. from is the worker f was lost with, zero when a
// consumer found it lost.
func (e *Engine) recover(f replica.FileH, from replica.WorkerH, asked bool) {
	id, p, keep := e.sub.Producer(f)
	if p == nil || p.State != taskspec.StateDone ||
		e.view.Reps.CountReplicas(f) > 0 || e.view.Trs.InFlightOf(f) > 0 {
		return
	}
	if n, _, _ := e.sub.File(f); !n.FixedSource.IsZero() {
		return
	}
	if asked || keep || e.needed(f) {
		e.sub.Requeue(id, f, from)
	}
}

// needed reports whether a waiting, staging or running task reads f: the
// waiting ones are on the queue, the others at the live workers.
func (e *Engine) needed(f replica.FileH) bool {
	reads := func(id int) bool {
		t := e.sub.Task(id)
		return t != nil && (t.State == taskspec.StateWaiting || t.State == taskspec.StateStaging ||
			t.State == taskspec.StateRunning) && slices.Contains(t.Inputs, f)
	}
	if slices.ContainsFunc(e.waiting, reads) || slices.ContainsFunc(e.late, reads) {
		return true
	}
	for _, wi := range e.live {
		e.ids = e.sub.OnWorker(e.ids[:0], wi.ID)
		if slices.ContainsFunc(e.ids, reads) {
			return true
		}
	}
	return false
}
