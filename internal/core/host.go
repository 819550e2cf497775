package core

import (
	"taskvine/internal/files"
	"taskvine/internal/policy"
	"taskvine/internal/replica"
	"taskvine/internal/sched"
	"taskvine/internal/taskspec"
)

// host is the manager as the scheduling engine's sched.Substrate. It
// drives the supervised transfer machinery, so retry, chaos injection and
// trace semantics come for free. All of it runs on the event loop.
type host struct{ m *Manager }

func (h host) Task(id int) *sched.Task {
	if t := h.m.tasks[id]; t != nil {
		return &t.Task
	}
	return nil
}

// File gives local files and buffers the manager as their fixed source
// and URL files their URL. Temps and handles have worker replicas only: the
// bytes exist solely inside the cluster (for handles, typically in a
// worker's memory tier) and move by peer transfer.
func (h host) File(fh replica.FileH) (policy.FileNeed, []replica.FileH, bool) {
	m := h.m
	f, ok := m.reg.Lookup(m.fileID(fh))
	if !ok {
		return policy.FileNeed{}, nil, false
	}
	n := policy.FileNeed{ID: fh, Size: f.Size}
	var mini []replica.FileH
	switch f.Type {
	case files.Local, files.Buffer:
		n.FixedSource = m.names.FixedSource(replica.SourceManager, "manager")
	case files.URL:
		n.FixedSource = m.names.FixedSource(replica.SourceURL, f.Source)
	case files.Mini:
		// No fixed source: with no replica anywhere the product is
		// materialized from the MiniTask's own inputs.
		for _, in := range f.MiniTask.Inputs {
			mini = append(mini, m.fh(in.FileID))
		}
	}
	return n, mini, true
}

// Satisfiable reports whether every input either exists somewhere, has a
// fixed source, or can be produced; it triggers recovery re-execution for
// temp files whose replicas were lost with a worker.
func (h host) Satisfiable(id int) bool {
	m, t := h.m, h.m.tasks[id]
	for i, in := range t.spec.Inputs {
		f, ok := m.reg.Lookup(in.FileID)
		if !ok {
			return false
		}
		// A MiniTask product is materializable anywhere its own inputs
		// are; other kinds have a fixed source.
		fh := t.Inputs[i]
		if (f.Type != files.Temp && f.Type != files.Handle) || m.reps.CountReplicas(fh) > 0 {
			continue
		}
		if m.trs.InFlightOf(fh) > 0 {
			return false // on its way somewhere
		}
		// No replica anywhere: the producer must (re-)run. For a handle
		// this re-executes the resident invocation whose result was lost
		// with its worker.
		if prodID, ok := m.reg.Producer(f.ID); ok {
			if p := m.taskByID(prodID); p != nil && p.State == taskspec.StateDone {
				m.logf("%s %s lost; re-executing producer task %d", f.Type, f.ID, prodID)
				m.requeue(prodID, p, false)
			}
		}
		return false
	}
	return true
}

// Candidates lists the live workers eligible for the task. FunctionCall
// tasks whose library is installed only run where an instance is ready.
func (h host) Candidates(id int) []policy.WorkerInfo {
	spec := h.m.tasks[id].spec
	if _, installed := h.m.libs[spec.Library]; !installed || spec.Kind != taskspec.KindFunction {
		return h.m.sched.Live()
	}
	return h.m.sched.LiveWith(func(w replica.WorkerH) bool { return h.m.byHandle[w].libsReady[spec.Library] })
}

func (h host) Alloc(id int, wh replica.WorkerH) bool {
	w := h.m.workerAt(wh)
	if w == nil || !w.pool.Alloc(h.m.tasks[id].spec.Resources) {
		return false
	}
	w.running[id] = true
	h.m.refresh(w)
	return true
}

func (h host) StartTransfer(f replica.FileH, src replica.Source, dest replica.WorkerH) bool {
	return h.m.startTransfer(h.m.fileID(f), src, h.m.workerAt(dest))
}

func (h host) Materialize(f replica.FileH, dest replica.WorkerH) bool {
	return h.m.materializeMini(f, h.m.workerAt(dest))
}

func (h host) Dispatch(id int, w replica.WorkerH) {
	h.m.dispatch(id, h.m.tasks[id], h.m.workerAt(w))
}
