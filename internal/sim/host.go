package sim

import (
	"fmt"

	"taskvine/internal/policy"
	"taskvine/internal/replica"
	"taskvine/internal/sched"
	"taskvine/internal/taskspec"
)

// host is the simulator as a substrate: sched.Substrate for the scheduling
// engine and policy.Substrate for lookahead placement (c.place, the same
// policy.Lookahead the real manager runs), fed the same way as the
// manager's — queue-front tasks in order, hot files sorted by ID, live
// workers in join order — so a simulated run and a real run of one
// workflow make identical decisions. Tasks are named by their index.
type host struct{ c *Cluster }

// SetPlacement enables lookahead placement. Call before Run; a disabled
// spec leaves the cluster exactly as constructed.
func (c *Cluster) SetPlacement(spec policy.PlacementSpec) {
	c.place = policy.NewLookahead(spec, c.vm, c.view)
	c.sched.Place = c.place
	if c.place == nil {
		return
	}
	for _, t := range c.tasks {
		if t.State == taskspec.StateWaiting || t.State == taskspec.StateStaging {
			c.sched.Consume(&t.Task, 1)
		}
	}
}

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

// Satisfiable: temp inputs must exist somewhere, or be at the manager.
func (h host) Satisfiable(id int) bool {
	for _, in := range h.c.tasks[id].Inputs {
		f := &h.c.files[in]
		if f.File != nil && f.Kind == Produced && h.c.reps.CountReplicas(in) == 0 && !f.atManager {
			return false
		}
	}
	return true
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

// StartTransfer is unsettled when admission refused the object or evicted
// anything to fit it: an evicted input must be fetched again.
func (h host) StartTransfer(f replica.FileH, src replica.Source, dest replica.WorkerH) bool {
	evictions := h.c.evictions
	return h.c.startTransfer(f, src, h.c.worker(dest), "") && h.c.evictions == evictions
}

func (h host) Materialize(f replica.FileH, dest replica.WorkerH) bool {
	evictions := h.c.evictions
	return h.c.materialize(f, h.c.worker(dest)) && h.c.evictions == evictions
}

func (h host) Dispatch(id int, w replica.WorkerH) { h.c.startRun(id, h.c.tasks[id], h.c.worker(w)) }

func (h host) QueuedNeeds(id int) []policy.FileNeed {
	t := h.c.tasks[id]
	if t.State != taskspec.StateWaiting || len(t.Inputs) == 0 {
		return nil
	}
	return h.c.sched.Needs(nil, t.Inputs) // fresh: the pass keeps it
}

func (h host) FileNeeds(f replica.FileH) []policy.FileNeed {
	h.c.needsBuf = h.c.sched.Needs(h.c.needsBuf[:0], []replica.FileH{f})
	return h.c.needsBuf
}

func (h host) ProducerWorker(f replica.FileH) replica.WorkerH {
	prod := h.c.files[f].producer
	if prod == 0 {
		return 0
	}
	if t := h.c.tasks[prod-1]; t.State == taskspec.StateStaging || t.State == taskspec.StateRunning {
		return t.Worker
	}
	return 0
}

func (h host) DiskCapacity(w replica.WorkerH) int64 { return h.c.worker(w).spec.Disk }

// StartPlacement reports false when admission refused the transfer (disk
// full) or the destination has left.
func (h host) StartPlacement(a policy.PlacementAction) bool {
	w := h.c.worker(a.Dest)
	if !w.joined {
		return false
	}
	h.c.startTransfer(a.File, a.Source, w, "placement:"+a.Kind.String())
	return h.c.trs.Pending(a.File, a.Dest)
}
