package core

import (
	"sort"

	"taskvine/internal/replica"
	"taskvine/internal/taskspec"
)

// This file builds the /debug/vine report: the deep operator view of the
// manager's scheduling state — queue contents, the File Replica Table, the
// Current Transfer Table, and transfer-retry backoff windows. Where /status
// gives counts, /debug/vine gives the rows behind them.

// TaskDebug is one task's row in the debug report.
type TaskDebug struct {
	ID       int    `json:"id"`
	State    string `json:"state"`
	Category string `json:"category,omitempty"`
	Worker   string `json:"worker,omitempty"`
	Retries  int    `json:"retries,omitempty"`
	// WaitingSeconds is how long the task has existed (since submission).
	WaitingSeconds float64 `json:"waiting_seconds"`
	// MissingInputs lists direct inputs not yet ready at the task's worker
	// (staging tasks only) — the files the task is waiting for.
	MissingInputs []string `json:"missing_inputs,omitempty"`
}

// TransferDebug is one in-flight supervised transfer.
type TransferDebug struct {
	ID     string `json:"id"`
	File   string `json:"file"`
	Source string `json:"source"`
	Dest   string `json:"dest"`
}

// RetryDebug is one placement currently under transfer-retry accounting.
type RetryDebug struct {
	File     string  `json:"file"`
	Dest     string  `json:"dest"`
	Attempts int     `json:"attempts"`
	Blocked  bool    `json:"blocked"`
	WaitSecs float64 `json:"wait_seconds,omitempty"`
}

// DebugReport is the full scheduling-state dump served at /debug/vine.
type DebugReport struct {
	Addr      string                 `json:"addr"`
	Now       float64                `json:"now"`
	Tasks     []TaskDebug            `json:"tasks,omitempty"`
	Replicas  []replica.FileReplicas `json:"replicas,omitempty"`
	Transfers []TransferDebug        `json:"transfers,omitempty"`
	Retries   []RetryDebug           `json:"retries,omitempty"`
	// EventsHandled and SchedulePasses expose the event loop's batching
	// behaviour: with event coalescing, passes never exceeds events.
	EventsHandled  int64 `json:"events_handled"`
	SchedulePasses int64 `json:"schedule_passes"`
	// ArchivedTasks counts delivered tasks kept for recovery re-execution:
	// only tasks that declared outputs, so it tracks recoverable work, not
	// calls served.
	ArchivedTasks int `json:"archived_tasks"`
}

// Debug returns a consistent snapshot of the manager's scheduling state,
// taken inside the event loop.
func (m *Manager) Debug() DebugReport {
	reply := make(chan DebugReport, 1)
	if r, ok := ask(m, event{kind: evDebug, debug: reply}, reply); ok {
		return r
	}
	return DebugReport{Addr: m.Addr()}
}

// buildDebug runs inside the event loop.
func (m *Manager) buildDebug() DebugReport {
	now := m.now()
	r := DebugReport{
		Addr: m.Addr(), Now: now,
		EventsHandled: m.eventsHandled, SchedulePasses: m.passes,
		ArchivedTasks: len(m.archived),
	}
	ids := make([]int, 0, len(m.tasks))
	for id := range m.tasks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		t := m.tasks[id]
		if t.State == taskspec.StateDone || t.State == taskspec.StateFailed {
			continue // only live tasks belong in a queue dump
		}
		td := TaskDebug{
			ID:             id,
			State:          t.State.String(),
			Category:       t.spec.Category,
			Worker:         m.workerName(t),
			Retries:        t.retries,
			WaitingSeconds: now - t.submitTime,
		}
		if t.State == taskspec.StateStaging {
			for _, in := range t.spec.Inputs {
				if !m.reps.Has(m.fh(in.FileID), t.Worker) {
					td.MissingInputs = append(td.MissingInputs, in.FileID)
				}
			}
		}
		r.Tasks = append(r.Tasks, td)
	}
	r.Replicas = m.reps.Snapshot()
	for _, tr := range m.trs.All() {
		r.Transfers = append(r.Transfers, TransferDebug{
			ID: m.transferUUID(tr), File: m.fileID(tr.File), Source: sourceLabel(m.names, tr.Source),
			Dest: m.names.Workers.Name(tr.Dest),
		})
	}
	for p, rs := range m.sched.Retries() {
		rd := RetryDebug{File: m.fileID(p.File), Dest: m.names.Workers.Name(p.Worker), Attempts: rs.Attempts}
		if wait := rs.NotBefore - m.now(); wait > 0 {
			rd.Blocked = true
			rd.WaitSecs = wait
		}
		r.Retries = append(r.Retries, rd)
	}
	sort.Slice(r.Retries, func(i, j int) bool {
		a, b := r.Retries[i], r.Retries[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Dest < b.Dest
	})
	return r
}
