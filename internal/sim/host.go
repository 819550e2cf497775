package sim

import (
	"fmt"

	"taskvine/internal/policy"
	"taskvine/internal/replica"
	"taskvine/internal/sched"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
)

// host is the simulator as the scheduling engine's sched.Substrate, the
// same engine the real manager runs, so a simulated run and a real run of
// one workflow make identical decisions. Tasks are named by their index.
type host struct{ c *Cluster }

func (h host) Task(id int) *sched.Task { return &h.c.tasks[id].Task }

// File gives each kind its fixed source; a produced file has worker
// replicas only, unless it was returned to the manager (shared-storage
// mode), which then serves its consumers.
func (h host) File(fh replica.FileH) (policy.FileNeed, []replica.FileH, bool) {
	c := h.c
	f := &c.files[fh]
	if f.File == nil {
		panic(fmt.Sprintf("sim: task references unknown file %s", c.fileName(fh)))
	}
	n := policy.FileNeed{ID: fh, Size: f.Size, FixedSource: f.fixed}
	switch {
	case (f.Kind == FromURL || f.Kind == FromSharedFS) && n.FixedSource.IsZero():
		prefix := "url:"
		if f.Kind == FromSharedFS {
			prefix = "fs:"
		}
		f.fixed = c.names.FixedSource(replica.SourceURL, prefix+f.SourcePath)
		n.FixedSource = f.fixed
	case f.Kind == Produced && f.atManager:
		n.FixedSource = c.managerSrc
	}
	return n, f.mini, true
}

// Producer returns a produced file's producing task.
func (h host) Producer(fh replica.FileH) (int, *sched.Task, bool) {
	if f := &h.c.files[fh]; f.File != nil && f.producer != 0 {
		return f.producer - 1, &h.c.tasks[f.producer-1].Task, false
	}
	return 0, nil, false
}

// Candidates returns the live workers that can run the task: all of them,
// or those with its library ready.
func (h host) Candidates(id int) []policy.WorkerInfo {
	c, lib := h.c, h.c.tasks[id].lib
	switch {
	case lib == 0:
		return c.sched.Live()
	case lib < 0:
		return nil
	}
	return c.sched.LiveWith(func(w replica.WorkerH) bool { return c.worker(w).libReady[lib-1] })
}

func (h host) Alloc(id int, wh replica.WorkerH) bool {
	t, w := h.c.tasks[id], h.c.worker(wh)
	if !w.pool.Alloc(t.Req) {
		return false
	}
	w.addRunning(id, t)
	h.c.refresh(w)
	return true
}

func (h host) OnWorker(buf []int, w replica.WorkerH) []int {
	return append(buf, h.c.worker(w).running...)
}

// StartTransfer is unsettled when admission refused the object or evicted
// anything to fit it: an evicted input must be fetched again.
func (h host) StartTransfer(f replica.FileH, src replica.Source, dest replica.WorkerH) bool {
	evictions := h.c.evictions
	return h.c.startTransfer(f, src, h.c.worker(dest)) && h.c.evictions == evictions
}

func (h host) Materialize(f replica.FileH, dest replica.WorkerH) bool {
	evictions := h.c.evictions
	return h.c.materialize(f, h.c.worker(dest)) && h.c.evictions == evictions
}

func (h host) Dispatch(id int, w replica.WorkerH) { h.c.startRun(id, h.c.tasks[id], h.c.worker(w)) }

// Requeue returns a task to the queue. A done producer re-executed for a
// lost temp gives back its completion; a staging task whose placement was
// abandoned gives back its allocation at its worker, which stays. Every
// requeue ends the task's current assignment: its pending events drop.
func (h host) Requeue(id int, lost replica.FileH, from replica.WorkerH) {
	c, t := h.c, h.c.tasks[id]
	switch {
	case t.State == taskspec.StateDone:
		c.log.Add(trace.Event{
			Time: c.eng.Now(), Kind: trace.RecoveryStart, Worker: c.names.Workers.Name(from),
			File: c.fileName(lost), TaskID: t.t.ID, Detail: "temp lost with worker; re-executing producer",
		})
		c.completed--
	case c.worker(t.Worker).joined:
		w := c.worker(t.Worker)
		c.dropRunning(w, t)
		w.pool.Release(t.Req)
		c.refresh(w)
	}
	c.sched.Requeue(id, &t.Task)
	t.epoch++
}

func (h host) Now() float64 { return h.c.eng.Now() }
