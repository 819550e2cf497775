package core

import (
	"bytes"
	"fmt"
	"os"
	"sort"
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
// batch: the objective is to replicate and place data first, and then
// schedule tasks within the constraints of available data (§2.1).
//
// The pass is incremental: events record what they may have unblocked
// (wakeSet, stagingDirty, needFull, stagingAll) and the pass visits only
// that. When nothing is marked, the pass is skipped entirely — no state
// changed, so no decision can change. Ticks force a full pass, bounding how
// long any missed wake-up can stall work.
func (m *Manager) schedule() {
	if !m.needFull && !m.stagingAll && len(m.wakeSet) == 0 && len(m.stagingDirty) == 0 {
		return
	}
	passStart := time.Now()
	defer func() {
		m.passes++
		m.vm.SchedulePasses.Inc()
		m.vm.SchedulePassSeconds.Observe(time.Since(passStart).Seconds())
		m.updateGauges()
	}()
	m.schedulePass()
	// Lookahead placement runs strictly after assignment and dispatch, so a
	// ready task is never delayed by speculative data movement, and inside
	// the same pass accounting (no extra passes, passes≤events holds).
	m.placeLookahead()
}

// schedulePass is the assignment body of schedule: advance staging,
// reconcile, and walk the marked portion of the waiting queue.
func (m *Manager) schedulePass() {
	full := m.needFull
	m.needFull = false
	// Advance staging tasks first so freshly arrived data dispatches
	// before new placements consume the worker's resources.
	if full || m.stagingAll {
		m.stagingAll = false
		clear(m.stagingDirty)
		for id, t := range m.staging { // hotpath-ok: bounded by tasks currently staging
			m.progressStaging(id, t)
		}
	} else {
		for id := range m.stagingDirty { // hotpath-ok: only tasks an event marked
			delete(m.stagingDirty, id)
			if t := m.staging[id]; t != nil {
				m.progressStaging(id, t)
			}
		}
	}
	if full {
		m.reconcileLibraries()
		m.reconcileReplication()
	}
	if len(m.waiting) == 0 {
		clear(m.wakeSet)
		return
	}
	if !full && len(m.wakeSet) == 0 {
		return
	}
	// Resource shortcut: when no live worker has a free core and no waiting
	// task requests zero cores, no assignment below can succeed — skip the
	// walk. This is what keeps a pass O(changed) while the cluster is
	// saturated, the common state of a high-throughput run.
	freeCores := 0
	for _, wi := range m.live {
		freeCores += wi.Free.Cores
	}
	if freeCores == 0 && m.waitingZeroCore == 0 {
		clear(m.wakeSet)
		return
	}
	// Take ownership of the queue before iterating: recovery paths inside
	// tryAssign (re-executing the producer of a lost temp) append to
	// m.waiting, and those additions must survive this pass.
	queue := m.waiting
	m.waiting = nil
	for i, id := range queue {
		t := m.tasks[id]
		if t == nil || t.state != taskspec.StateWaiting {
			continue
		}
		if freeCores == 0 && m.waitingZeroCore == 0 {
			// The cluster filled up mid-pass; nothing behind this point can
			// assign either. Keep the tail in order for the next pass.
			m.waiting = append(m.waiting, queue[i:]...)
			break
		}
		if !full && !m.wakeSet[id] {
			m.waiting = append(m.waiting, id)
			continue
		}
		if m.tryAssign(id, t) {
			freeCores -= t.spec.Resources.Cores
		} else {
			m.waiting = append(m.waiting, id)
		}
	}
	clear(m.wakeSet)
}

// updateGauges refreshes the instantaneous-state instruments from the
// incrementally maintained counters — O(states), not O(all tasks ever).
func (m *Manager) updateGauges() {
	for s, n := range m.stateCount {
		m.vm.TasksByState.With(taskspec.State(s).String()).Set(float64(n))
	}
	m.vm.WorkersConnected.Set(float64(len(m.live)))
	m.vm.TransfersInflight.Set(float64(m.trs.Len()))
}

// depsSatisfiable reports whether every input either exists somewhere, has
// a fixed source, or can be produced; it triggers recovery re-execution for
// temp files whose replicas were lost with a worker.
func (m *Manager) depsSatisfiable(t *taskState) bool {
	for _, in := range t.spec.Inputs {
		f, ok := m.reg.Lookup(in.FileID)
		if !ok {
			return false
		}
		switch f.Type {
		case files.Temp, files.Handle:
			fh := m.fh(f.ID)
			if m.reps.CountReplicas(fh) > 0 {
				continue
			}
			if m.trs.InFlightOf(fh) > 0 {
				return false // on its way somewhere
			}
			// No replica anywhere: the producer must (re-)run. For a
			// handle this re-executes the resident invocation whose
			// result was lost with its worker.
			if prodID, ok := m.reg.Producer(f.ID); ok {
				p := m.taskByID(prodID)
				if p != nil && (p.state == taskspec.StateDone) {
					m.logf("%s %s lost; re-executing producer task %d", f.Type, f.ID, prodID)
					m.requeue(prodID, p, false)
				}
			}
			return false
		case files.Mini:
			// Materializable anywhere, as long as its own inputs are
			// satisfiable; recursion bottoms out at fixed sources.
			continue
		default:
			continue
		}
	}
	return true
}

// tryAssign picks a worker for a waiting task and moves it to staging.
func (m *Manager) tryAssign(id int, t *taskState) bool {
	if !m.depsSatisfiable(t) {
		return false
	}
	candidates := m.candidateWorkers(t)
	if len(candidates) == 0 {
		return false
	}
	needs := m.fileNeedsScratch(t.spec.Inputs)
	chosen, ok := m.place.Pick(needs, t.spec.Resources, candidates, m.view)
	if !ok {
		return false
	}
	w := m.workerAt(chosen.ID)
	if w == nil || !w.pool.Alloc(t.spec.Resources) {
		return false
	}
	t.worker = w.id
	m.setState(id, t, taskspec.StateStaging)
	w.running[id] = true
	m.refresh(w)
	m.progressStaging(id, t)
	return true
}

// candidateWorkers lists live workers eligible for the task, already in
// join order (the cached live list). FunctionCall tasks whose library is
// installed only run where an instance is ready.
func (m *Manager) candidateWorkers(t *taskState) []policy.WorkerInfo {
	needLib := ""
	if t.spec.Kind == taskspec.KindFunction {
		if _, installed := m.libs[t.spec.Library]; installed {
			needLib = t.spec.Library
		}
	}
	return m.workerInfos(needLib)
}

// fileNeeds converts mounts to policy FileNeeds with their fixed sources.
// The returned slice is freshly allocated and safe to retain (the placement
// engine keeps it across a planning round); the dedup map is reused scratch.
func (m *Manager) fileNeeds(mounts []taskspec.Mount) []policy.FileNeed {
	return m.fileNeedsInto(nil, mounts)
}

// fileNeedsScratch is fileNeeds appending into a manager-owned buffer: the
// result is valid only until the next fileNeedsScratch call, which the
// dispatch hot path (tryAssign, progressStaging) satisfies — each caller
// finishes with the slice before any path calls back in. This keeps the
// per-dispatch cost free of the needs-slice allocation.
func (m *Manager) fileNeedsScratch(mounts []taskspec.Mount) []policy.FileNeed {
	m.needsBuf = m.fileNeedsInto(m.needsBuf[:0], mounts)
	return m.needsBuf
}

func (m *Manager) fileNeedsInto(needs []policy.FileNeed, mounts []taskspec.Mount) []policy.FileNeed {
	if m.needsSeen == nil {
		m.needsSeen = make(map[string]bool)
	}
	seen := m.needsSeen
	clear(seen)
	var add func(fileID string)
	add = func(fileID string) {
		if seen[fileID] {
			return
		}
		seen[fileID] = true
		f, ok := m.reg.Lookup(fileID)
		if !ok {
			return
		}
		n := policy.FileNeed{ID: m.fh(f.ID), Size: f.Size}
		switch f.Type {
		case files.Local, files.Buffer:
			n.FixedSource = m.names.FixedSource(replica.SourceManager, "manager")
		case files.URL:
			n.FixedSource = m.names.FixedSource(replica.SourceURL, f.Source)
		case files.Mini:
			// No fixed network source; if no replica exists anywhere the
			// product must be materialized, which requires the MiniTask's
			// own inputs (recursively).
			if m.reps.CountReplicas(n.ID) == 0 {
				for _, in := range f.MiniTask.Inputs {
					add(in.FileID)
				}
			}
		case files.Temp, files.Handle:
			// Worker replicas only: the bytes exist solely inside the
			// cluster (for handles, typically in a worker's memory tier)
			// and move by peer transfer.
		}
		needs = append(needs, n)
	}
	for _, mt := range mounts {
		add(mt.FileID)
	}
	return needs
}

// progressStaging advances data placement for a staging task and dispatches
// it when every direct input is ready at its worker.
func (m *Manager) progressStaging(id int, t *taskState) {
	w := m.workers[t.worker]
	if w == nil || w.gone {
		m.requeue(id, t, false)
		return
	}
	needs := m.fileNeedsScratch(t.spec.Inputs)
	plan := &m.plan
	policy.PlanTransfers(plan, needs, w.h, m.cfg.Limits, m.view)
	for _, tr := range plan.Transfers {
		m.startTransfer(m.fileID(tr.File), tr.Source, w, "")
	}
	// Materialize MiniTask products whose inputs are now fully present.
	for _, blocked := range plan.Blocked {
		f, ok := m.reg.Lookup(m.fileID(blocked))
		if !ok || f.Type != files.Mini {
			continue
		}
		if m.reps.HasAny(blocked, w.h) {
			continue // already materializing here
		}
		if m.reps.CountReplicas(blocked) > 0 {
			continue // exists elsewhere; peer transfer will be planned when a slot opens
		}
		ready := true
		for _, in := range f.MiniTask.Inputs {
			if !m.reps.Has(m.fh(in.FileID), w.h) {
				ready = false
				break
			}
		}
		if ready {
			m.materializeMini(f, w)
		}
	}
	// Dispatch when all direct inputs are ready.
	for _, mt := range t.spec.Inputs {
		if !m.reps.Has(m.fh(mt.FileID), w.h) {
			return
		}
	}
	m.dispatch(id, t, w)
}

// startTransfer records and issues one supervised transfer instruction.
// Placements inside a retry backoff window are silently skipped: the
// per-tick replanner re-offers them until the window opens. detail tags the
// TransferStart trace event with why the transfer was issued; demand
// staging passes "" so traces are unchanged unless placement runs.
func (m *Manager) startTransfer(fileID string, src replica.Source, w *workerConn, detail string) {
	f, ok := m.reg.Lookup(fileID)
	if !ok {
		return
	}
	if m.transferBlocked(fileID, w.id) {
		return
	}
	fh := m.fh(fileID)
	tr, tid := m.startTr(fh, src, w)
	m.reps.Add(fh, w.h, replica.Pending)
	m.tlog.Add(trace.Event{
		Time: m.now(), Kind: trace.TransferStart, Worker: w.id, File: fileID,
		Source: sourceLabel(m.names, src), Detail: detail,
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
				// List the other live holders so the destination can fetch
				// disjoint chunks of a large object from several replicas in
				// parallel; the chosen source stays the primary.
				var extras []string
				for _, wid := range m.reps.Locate(fh) {
					if wid == src.Worker() || wid == w.h {
						continue
					}
					if pw := m.workerAt(wid); pw != nil && !pw.gone && pw.transferAddr != "" {
						extras = append(extras, pw.transferAddr)
					}
				}
				sort.Strings(extras)
				err = w.conn.Send(&protocol.Message{
					Type: protocol.TypeFetchPeer, CacheName: fileID, PeerAddr: peer.transferAddr,
					PeerAddrs: extras, Total: f.Size,
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
		m.noteTransferFailure(fileID, w.id)
	}
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
// (§3.1). Materialization is tracked as a pending replica; the worker's
// cache-update (with no transfer UUID) commits it.
func (m *Manager) materializeMini(f *files.File, w *workerConn) {
	for _, in := range f.MiniTask.Inputs {
		m.place.Use(m.fh(in.FileID), w.h)
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
	}
}

// dispatch sends a fully staged task to its worker.
func (m *Manager) dispatch(id int, t *taskState, w *workerConn) {
	if m.place != nil {
		for _, mt := range t.spec.Inputs {
			m.place.Use(m.fh(mt.FileID), w.h)
		}
	}
	m.setState(id, t, taskspec.StateRunning)
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
	if w := m.workers[t.worker]; w != nil && w.running[id] {
		delete(w.running, id)
		if !w.gone {
			w.pool.Release(t.spec.Resources)
		}
		m.refresh(w)
	}
	t.worker = ""
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
	wasDone := t.state == taskspec.StateDone
	m.setState(id, t, taskspec.StateWaiting)
	if wasDone {
		t.notified = true
	}
	m.waiting = append(m.waiting, id)
	m.needFull = true
	m.vm.TasksRequeued.Inc()
}

// finishTask finalizes a task: releases worker resources, garbage-collects
// task-lifetime inputs, and delivers the result to the application.
func (m *Manager) finishTask(id int, t *taskState, res *Result) {
	if w := m.workers[t.worker]; w != nil && w.running[id] {
		delete(w.running, id)
		if !w.gone {
			w.pool.Release(t.spec.Resources)
		}
		m.refresh(w)
	}
	if res.OK {
		m.setState(id, t, taskspec.StateDone)
	} else {
		m.setState(id, t, taskspec.StateFailed)
	}
	// Freed resources may unblock any waiting task.
	m.needFull = true
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
		m.place.Gone(fh, wid)
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
	workers := m.workerInfos("")
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
		needs := m.fileNeeds([]taskspec.Mount{{FileID: fileID, Name: "x"}})
		plan := &m.plan
		for _, target := range targets {
			policy.PlanTransfers(plan, needs, target, m.cfg.Limits, m.view)
			for _, tr := range plan.Transfers {
				if tr.File == fh {
					if w := m.workerAt(target); w != nil {
						m.startTransfer(fileID, tr.Source, w, "")
					}
				}
			}
		}
	}
}
