package core

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"taskvine/internal/chaos"
	"taskvine/internal/files"
	"taskvine/internal/policy"
	"taskvine/internal/protocol"
	"taskvine/internal/replica"
	"taskvine/internal/tardir"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
)

// schedule is the manager's main decision pass, run after every event
// batch and tick: the objective is to replicate and place data first, and
// then schedule tasks within the constraints of available data (§2.1). The
// engine runs the pass; the manager reconciles libraries and replication
// goals inside it when asked to. A batch that mutated no table, queued no
// task and asked for no reconcile cannot change a decision, so its pass is
// skipped.
func (m *Manager) schedule() {
	if !m.reconcile && !m.sched.Dirty() {
		return
	}
	passStart := time.Now()
	m.sched.Pass(m.reconcileAll)
	m.passes++
	m.vm.SchedulePassSeconds.Observe(time.Since(passStart).Seconds())
}

// reconcileAll reconciles libraries and replication goals if asked to.
func (m *Manager) reconcileAll() {
	if m.reconcile {
		m.reconcile = false
		m.reconcileLibraries()
		m.reconcileReplication()
	}
}

// startTransfer records and issues one supervised transfer instruction.
// It reports false when the transfer failed to start.
func (m *Manager) startTransfer(fileID string, src replica.Source, w *workerConn) bool {
	f, ok := m.reg.Lookup(fileID)
	if !ok {
		return false
	}
	fh := m.fh(fileID)
	tr, tid := m.startTr(fh, src, w)
	m.reps.Add(fh, w.h, replica.Pending)
	m.tlog.Add(trace.Event{
		Time: m.now(), Kind: trace.TransferStart, Worker: w.id, File: fileID,
		Source: sourceLabel(m.names, src),
	})
	var err error
	if fault := m.cfg.Faults.At(chaos.Transfer, w.id, fileID); fault.Action != chaos.None {
		err = fmt.Errorf("chaos: injected %s", fault.Action)
	} else {
		switch src.Kind {
		case replica.SourceURL:
			err = w.conn.Send(&protocol.Message{
				Type: protocol.TypeFetchURL, CacheName: fileID, URL: f.Source,
				Size: f.Size, Lifetime: int(f.Lifetime), TransferID: tid,
			})
		case replica.SourceWorker:
			peer := m.workerAt(src.Worker())
			if peer == nil || peer.gone {
				err = fmt.Errorf("peer %s is gone", m.names.SourceName(src))
			} else {
				err = w.conn.Send(&protocol.Message{
					Type: protocol.TypeFetchPeer, CacheName: fileID, PeerAddr: peer.transferAddr,
					Size: f.Size, Lifetime: int(f.Lifetime), TransferID: tid,
				})
			}
		case replica.SourceManager:
			// sendPut streams file bytes over the worker connection —
			// stat, open, and payload writes that would stall every other
			// worker if run on the event loop. Ship from a tracked helper
			// goroutine; protocol.Conn serializes concurrent writers. A
			// failure comes back as a synthetic failed cache-update, which
			// funnels into the same retry path as a worker-reported one.
			m.goBG(func() {
				perr := m.sendPut(w, f, tid)
				if perr == nil {
					return
				}
				select {
				case m.events <- event{kind: evMsg, msg: &protocol.Message{
					Type: protocol.TypeCacheUpdate, WorkerID: w.id, CacheName: fileID,
					TransferID: tid, Status: protocol.StatusFailed, Error: perr.Error(),
				}}:
				case <-m.loopDone:
				}
			})
		}
	}
	if err != nil {
		m.logf("transfer of %s to %s failed to start: %v", fileID, w.id, err)
		m.endTr(tr)
		m.reps.Remove(fh, w.h)
		m.tlog.Add(trace.Event{Time: m.now(), Kind: trace.TransferFailed, Worker: w.id, File: fileID, Source: sourceLabel(m.names, src), Detail: err.Error()})
		m.transferFailed(fh, w.h)
		return false
	}
	return true
}

// transferFailed reports a failed transfer to the engine, which retries
// the placement after a backoff or abandons it, and traces the retry.
func (m *Manager) transferFailed(f replica.FileH, w replica.WorkerH) {
	fileID, dest := m.fileID(f), m.names.Workers.Name(w)
	attempt, wait := m.sched.TransferFailed(f, w)
	if wait == 0 {
		m.logf("transfer of %s to %s failed %d times; abandoning placement", fileID, dest, attempt)
		return
	}
	m.tlog.Add(trace.Event{
		Time: m.now(), Kind: trace.TransferRetry, Worker: dest, File: fileID,
		Detail: fmt.Sprintf("attempt %d; backoff %v", attempt, wait.Round(time.Millisecond)),
	})
}

// sendPut ships a manager-resident object (local file, directory, or
// buffer) to a worker.
func (m *Manager) sendPut(w *workerConn, f *files.File, transferID string) error {
	base := &protocol.Message{
		Type: protocol.TypePut, CacheName: f.ID,
		Lifetime: int(f.Lifetime), TransferID: transferID,
	}
	switch f.Type {
	case files.Buffer:
		base.Size = int64(len(f.Content))
		return w.conn.SendPayload(base, bytes.NewReader(f.Content))
	case files.Local:
		info, err := os.Stat(f.Source)
		if err != nil {
			return err
		}
		if info.IsDir() {
			blob, err := tardir.Pack(f.Source)
			if err != nil {
				return err
			}
			base.Size = int64(len(blob))
			base.Dir = true
			return w.conn.SendPayload(base, bytes.NewReader(blob))
		}
		fh, err := os.Open(f.Source)
		if err != nil {
			return err
		}
		defer fh.Close()
		base.Size = info.Size()
		return w.conn.SendPayload(base, fh)
	default:
		return fmt.Errorf("core: file %s of type %s cannot be sent by the manager", f.ID, f.Type)
	}
}

// materializeMini instructs a worker to produce a MiniTask file on demand
// (§3.1), if the product is blocked at w: no replica exists anywhere and
// the MiniTask's inputs are all at w. Materialization is tracked as a
// pending replica; the worker's cache-update (with no transfer UUID)
// commits it. It reports false when the instruction could not be sent.
func (m *Manager) materializeMini(fh replica.FileH, w *workerConn) bool {
	f, ok := m.reg.Lookup(m.fileID(fh))
	if !ok || f.Type != files.Mini || m.reps.HasAny(fh, w.h) || m.reps.CountReplicas(fh) > 0 {
		return true
	}
	for _, in := range f.MiniTask.Inputs {
		if !m.reps.Has(m.fh(in.FileID), w.h) {
			return true
		}
	}
	m.reps.Add(m.fh(f.ID), w.h, replica.Pending)
	m.tlog.Add(trace.Event{Time: m.now(), Kind: trace.StageStart, Worker: w.id, File: f.ID})
	err := w.conn.Send(&protocol.Message{
		Type: protocol.TypeMini, CacheName: f.ID, Spec: f.MiniTask,
		Lifetime: int(f.Lifetime),
	})
	if err != nil {
		m.logf("materializing %s at %s: %v", f.ID, w.id, err)
		m.vm.SendErrors.With("mini").Inc()
		m.reps.Remove(m.fh(f.ID), w.h)
		return false
	}
	return true
}

// dispatch sends a fully staged task to its worker.
func (m *Manager) dispatch(id int, t *taskState, w *workerConn) {
	m.sched.Run(id, &t.Task)
	m.vm.DispatchLatency.Observe(m.now() - t.submitTime)
	m.tlog.Add(trace.Event{
		Time: m.now(), Kind: trace.TaskStart, Worker: w.id, TaskID: id,
		Detail: t.spec.Category,
	})
	// The send message is manager-owned scratch: Send encodes it into the
	// connection's queue before returning, and dispatch only runs on the
	// event loop, so reusing one Message avoids a per-dispatch allocation.
	m.sendMsg = protocol.Message{Type: protocol.TypeTask, TaskID: id, Spec: t.spec}
	if err := w.conn.Send(&m.sendMsg); err != nil {
		m.logf("dispatching task %d to %s: %v", id, w.id, err)
		m.vm.SendErrors.With("task").Inc()
		m.requeue(id, t, false)
	}
}

// requeue returns a task to the waiting state, optionally counting a retry.
func (m *Manager) requeue(id int, t *taskState, countRetry bool) {
	m.unarchive(id, t)
	m.release(id, t)
	if countRetry {
		t.retries++
	}
	if countRetry && t.retries > t.spec.MaxRetries {
		m.finishTask(id, t, &Result{
			TaskID: id, OK: false, ExitCode: -1,
			Error: fmt.Sprintf("task %d exhausted %d retries", id, t.spec.MaxRetries),
		})
		return
	}
	// A done task re-executed for recovery already delivered its result;
	// mark it notified so the second completion is not delivered again. The
	// check must read the state before the transition below overwrites it.
	wasDone := t.State == taskspec.StateDone
	m.sched.Requeue(id, &t.Task)
	if wasDone {
		t.notified = true
	}
	m.reconcile = true
}

// release returns a task's allocation to its worker.
func (m *Manager) release(id int, t *taskState) {
	if w := m.workerAt(t.Worker); w != nil && w.running[id] {
		delete(w.running, id)
		if !w.gone {
			w.pool.Release(t.spec.Resources)
		}
		m.refresh(w)
	}
}

// finishTask finalizes a task: releases worker resources, garbage-collects
// task-lifetime inputs, and delivers the result to the application.
func (m *Manager) finishTask(id int, t *taskState, res *Result) {
	m.release(id, t)
	s := taskspec.StateFailed
	if res.OK {
		s = taskspec.StateDone
	}
	if t.library {
		m.libCount[t.State]--
		m.libCount[s]++
	}
	m.sched.SetState(id, &t.Task, s)
	// Freed resources may let a library deploy.
	m.reconcile = true
	// GC: inputs this task held may now be unreferenced.
	garbage := m.reg.Release(t.spec.InputIDs())
	for _, g := range garbage {
		m.deleteEverywhere(g)
	}
	if t.library {
		return
	}
	if !t.notified {
		t.notified = true
		m.pendingWk--
		m.queueResult(res)
	}
	m.archive(id, t)
}

// deleteEverywhere removes an object from every worker holding it.
func (m *Manager) deleteEverywhere(fileID string) {
	fh := m.fh(fileID)
	for _, wid := range m.reps.Locate(fh) {
		if w := m.workerAt(wid); w != nil && !w.gone {
			if err := w.conn.Send(&protocol.Message{Type: protocol.TypeUnlink, CacheName: fileID}); err != nil {
				m.logf("unlinking %s at %s: %v", fileID, w.id, err)
				m.vm.SendErrors.With("unlink").Inc()
			}
		}
		m.reps.Remove(fh, wid)
	}
}

func sourceLabel(names *replica.Names, src replica.Source) string {
	switch src.Kind {
	case replica.SourceURL:
		return "url"
	case replica.SourceManager:
		return "manager"
	default:
		return "worker:" + names.SourceName(src)
	}
}

// isResourceExhaustion matches the worker's enforcement error (§2.1).
func isResourceExhaustion(msg string) bool {
	return strings.Contains(msg, "resource exhaustion")
}

// reconcileReplication pushes extra replicas of files with replication
// goals onto workers that lack them, through the same supervised transfer
// machinery as task staging.
func (m *Manager) reconcileReplication() {
	if len(m.replicaGoals) == 0 {
		return
	}
	workers := m.sched.Live()
	for fileID, goal := range m.replicaGoals { // hotpath-ok: bounded by files with replication goals
		if goal <= 1 {
			delete(m.replicaGoals, fileID)
			continue
		}
		fh := m.fh(fileID)
		have := m.reps.CountReplicas(fh)
		pending := 0
		for _, w := range workers {
			if s, ok := m.reps.State(fh, w.ID); ok && s == replica.Pending {
				pending++
			}
		}
		need := goal - have - pending
		if need <= 0 {
			continue
		}
		targets := policy.ChooseReplicationTargets(fh, need, workers, m.view)
		needs := m.sched.Needs(nil, []replica.FileH{fh})
		plan := &m.plan
		for _, target := range targets {
			policy.PlanTransfers(plan, needs, target, m.cfg.Limits, m.view)
			for _, tr := range plan.Transfers {
				if tr.File == fh {
					m.sched.StartTransfer(fh, tr.Source, target)
				}
			}
		}
	}
}
