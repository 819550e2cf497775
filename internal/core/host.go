package core

import (
	"taskvine/internal/files"
	"taskvine/internal/policy"
	"taskvine/internal/replica"
	"taskvine/internal/sched"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
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
		mini = make([]replica.FileH, len(f.MiniTask.Inputs))
		for i, in := range f.MiniTask.Inputs {
			mini[i] = m.fh(in.FileID)
		}
	}
	return n, mini, true
}

// Producer finds a file's producer through the registry, archived tasks
// included; a replication goal keeps the file.
func (h host) Producer(fh replica.FileH) (int, *sched.Task, bool) {
	m := h.m
	fid := m.fileID(fh)
	if id, ok := m.reg.Producer(fid); ok {
		if t := m.taskByID(id); t != nil {
			return id, &t.Task, m.replicaGoals[fid] > 1
		}
	}
	return 0, nil, false
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

func (h host) OnWorker(buf []int, wh replica.WorkerH) []int {
	if w := h.m.workerAt(wh); w != nil {
		for id := range w.running {
			buf = append(buf, id)
		}
	}
	return buf
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

// Requeue drops a library instance that died with its node (the
// reconcile pass redeploys it on the survivors) and finishes a cancelled
// task; any other task goes back to the queue without using a task retry.
// A lost temp's producer is traced as a recovery.
func (h host) Requeue(id int, lost replica.FileH, from replica.WorkerH) {
	m := h.m
	t := m.taskByID(id)
	switch {
	case t.library:
		if w := m.workerAt(t.Worker); w != nil {
			delete(w.running, id)
		}
		m.dropTask(id, t)
	case t.cancelled:
		m.finishTask(id, t, &Result{
			TaskID: id, Worker: m.workerName(t), OK: false, ExitCode: -1, Error: "cancelled",
		})
	default:
		if lost != 0 {
			m.tlog.Add(trace.Event{
				Time: m.now(), Kind: trace.RecoveryStart, Worker: m.names.Workers.Name(from),
				File: m.fileID(lost), TaskID: id, Detail: "temp lost with worker; re-executing producer",
			})
			m.logf("temp %s lost; re-executing producer task %d", m.fileID(lost), id)
		}
		m.requeue(id, t, false)
	}
}

func (h host) Now() float64 { return h.m.now() }
