package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"taskvine/internal/chaos"
	"taskvine/internal/files"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
)

// This file holds the manager's failure-recovery machinery: transfer-level
// retry accounting with backoff (distinct from task retries), replica repair
// after worker loss, recovery re-execution of lost temps, and library
// redeployment. All of it runs inside the event loop.

// transferKey identifies one (file, destination) placement attempt across
// retries of its supervised transfer.
type transferKey struct {
	file string
	dest string
}

// transferRetryState accumulates failures of one placement. Transfer
// attempts are accounted separately from task retries: a task must never
// burn its MaxRetries budget because the network hiccuped while staging.
type transferRetryState struct {
	attempts  int
	notBefore time.Time // next attempt allowed at/after this instant
}

// transferBlocked reports whether a placement is inside its backoff window.
// startTransfer consults it so the per-tick replanner does not hammer a
// failing source; the plan is simply re-issued on a later tick.
func (m *Manager) transferBlocked(fileID, dest string) bool {
	rs := m.transferRetry[transferKey{file: fileID, dest: dest}]
	return rs != nil && time.Now().Before(rs.notBefore)
}

// noteTransferFailure records one failed transfer of fileID toward dest,
// scheduling a backed-off retry or, past the limit, abandoning the
// placement so the scheduler picks a different worker.
func (m *Manager) noteTransferFailure(fileID, dest string) {
	key := transferKey{file: fileID, dest: dest}
	rs := m.transferRetry[key]
	if rs == nil {
		rs = &transferRetryState{}
		m.transferRetry[key] = rs
	}
	rs.attempts++
	if rs.attempts > m.cfg.TransferRetryLimit {
		m.logf("transfer of %s to %s failed %d times; abandoning placement", fileID, dest, rs.attempts)
		delete(m.transferRetry, key)
		m.vm.TransferAbandonments.Inc()
		m.abandonPlacement(fileID, dest)
		return
	}
	d := chaos.Backoff(m.cfg.TransferBackoffBase, m.cfg.TransferBackoffMax, rs.attempts, 0, fileID+"|"+dest)
	rs.notBefore = time.Now().Add(d)
	m.tlog.Add(trace.Event{
		Time: m.now(), Kind: trace.TransferRetry, Worker: dest, File: fileID,
		Detail: fmt.Sprintf("attempt %d; backoff %v", rs.attempts, d.Round(time.Millisecond)),
	})
}

// clearTransferFailure forgets a placement's failure history once a
// transfer lands (or its destination disappears).
func (m *Manager) clearTransferFailure(fileID, dest string) {
	delete(m.transferRetry, transferKey{file: fileID, dest: dest})
}

// abandonPlacement requeues every staging task on dest that is waiting for
// fileID, without consuming task retries, so the scheduler can place the
// work where the data can actually arrive.
func (m *Manager) abandonPlacement(fileID, dest string) {
	w := m.workers[dest]
	if w == nil {
		return
	}
	fh := m.fh(fileID)
	var ids []int
	for id := range w.running { // hotpath-ok: bounded by one worker's tasks
		if t := m.tasks[id]; t != nil && t.State == taskspec.StateStaging && slices.Contains(t.Inputs, fh) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		m.requeue(id, m.tasks[id], false)
	}
}

// repairReplicas inspects every file that lost a replica with a departed
// worker. Files below their requested replica count are flagged (the
// reconcile pass tops them up); temp files that lost their LAST replica are
// regenerated by re-executing their completed producer task — the paper's
// recovery re-execution, run eagerly instead of waiting for a consumer to
// stall (§2.2). affected comes sorted by file ID.
func (m *Manager) repairReplicas(workerID string, affected []string) {
	for _, fid := range affected {
		left := m.reps.CountReplicas(m.fh(fid))
		if goal := m.replicaGoals[fid]; goal > 1 && left < goal {
			m.tlog.Add(trace.Event{
				Time: m.now(), Kind: trace.ReplicaLost, Worker: workerID, File: fid,
				Detail: fmt.Sprintf("%d/%d", left, goal),
			})
		}
		if left > 0 || m.trs.InFlightOf(m.fh(fid)) > 0 {
			continue
		}
		f, ok := m.reg.Lookup(fid)
		if !ok || f.Type != files.Temp {
			continue
		}
		prodID, ok := m.reg.Producer(fid)
		if !ok {
			continue
		}
		p := m.taskByID(prodID)
		if p == nil || p.State != taskspec.StateDone {
			continue
		}
		if !m.tempStillNeeded(fid) {
			continue
		}
		m.tlog.Add(trace.Event{
			Time: m.now(), Kind: trace.RecoveryStart, Worker: workerID, File: fid, TaskID: prodID,
			Detail: "temp lost with worker; re-executing producer",
		})
		m.logf("temp %s lost with worker %s; re-executing producer task %d", fid, workerID, prodID)
		m.requeue(prodID, p, false)
	}
}

// tempStillNeeded reports whether any unfinished task still consumes the
// file, or a replication goal demands its existence. A lost temp nobody
// wants is simply forgotten.
func (m *Manager) tempStillNeeded(fid string) bool {
	if m.replicaGoals[fid] > 1 {
		return true
	}
	for _, t := range m.tasks {
		if t.library || t.cancelled {
			continue
		}
		switch t.State {
		case taskspec.StateWaiting, taskspec.StateStaging, taskspec.StateRunning:
			for _, in := range t.spec.Inputs {
				if in.FileID == fid {
					return true
				}
			}
		}
	}
	return false
}

// reconcileLibraries re-attempts deployment of every installed library on
// every live worker lacking a ready or in-progress instance. Deployment can
// be refused transiently (no free resources) or undone entirely (the worker
// hosting the only instance died); this pass, run on every scheduling tick,
// is what makes deployLibraryTo's refusals safe.
func (m *Manager) reconcileLibraries() {
	if len(m.libs) == 0 {
		return
	}
	names := make([]string, 0, len(m.libs))
	for name := range m.libs { // hotpath-ok: bounded by installed libraries
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, wi := range m.sched.Live() {
			m.deployLibraryTo(m.workerAt(wi.ID), m.libs[name])
		}
	}
}
