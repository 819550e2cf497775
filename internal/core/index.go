package core

import (
	"taskvine/internal/intern"
	"taskvine/internal/replica"
	"taskvine/internal/taskspec"
)

// This file holds the manager's task and worker bookkeeping around the
// scheduling engine: the hot task map and its archive, and the handles and
// live-view entries of registered workers.

// track registers a declared task in the hot map, with its scheduling
// request and input handles.
func (m *Manager) track(id int, spec *taskspec.Spec) *taskState {
	t := &taskState{spec: spec}
	t.Req = spec.Resources
	t.Inputs = make([]replica.FileH, len(spec.Inputs))
	for i, in := range spec.Inputs {
		t.Inputs[i] = m.fh(in.FileID)
	}
	m.tasks[id] = t
	return t
}

// dropTask forgets a library deployment entirely (one that died with its
// worker or never started). Unlike archive, the counters forget it too.
func (m *Manager) dropTask(id int, t *taskState) {
	delete(m.tasks, id)
	m.sched.Forget(&t.Task)
	m.libCount[t.State]--
}

// archive moves a delivered terminal task out of the hot map. A task that
// declared outputs stays reachable through taskByID, because losing one of
// its files may require re-executing it; taskByID is only ever asked for a
// file's producer. An output-less task (a plain Invoke, a command with no
// outputs) can never be needed again and is dropped, so the manager's
// memory tracks recoverable work, not calls served. The state counters are
// deliberately NOT decremented: the gauges keep counting done and failed
// tasks for the whole workflow, as they always have.
func (m *Manager) archive(id int, t *taskState) {
	delete(m.tasks, id)
	if len(t.spec.Outputs) > 0 {
		m.archived[id] = t
	}
}

// taskByID finds a task in the hot map or the archive.
func (m *Manager) taskByID(id int) *taskState {
	if t := m.tasks[id]; t != nil {
		return t
	}
	return m.archived[id]
}

// unarchive returns an archived task to the hot map (recovery re-execution
// of a done producer). No-op for live tasks.
func (m *Manager) unarchive(id int, t *taskState) {
	if m.archived[id] == t {
		delete(m.archived, id)
		m.tasks[id] = t
	}
}

// workerName returns the ID of the worker a task is assigned to, or "".
func (m *Manager) workerName(t *taskState) string { return m.names.Workers.Name(t.Worker) }

// join registers a worker under its handle and adds it to the live view.
func (m *Manager) join(w *workerConn) {
	w.h = m.names.Workers.Intern(w.id)
	m.byHandle = intern.Grow(m.byHandle, w.h)
	m.byHandle[w.h] = w
	m.workers[w.id] = w
	m.sched.Join(w.h, w.joinOrder)
	m.refresh(w)
}

// refresh copies a live worker's free resources and task count into the
// live view; every Alloc, Release and running-set change calls it.
func (m *Manager) refresh(w *workerConn) {
	m.sched.Refresh(w.h, w.pool.Free(), len(w.running))
}
