package core

import (
	"fmt"
	"os"
	"sort"
	"time"

	"taskvine/internal/files"
	"taskvine/internal/hashing"
	"taskvine/internal/protocol"
	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
)

// handleMessage processes one message from a worker inside the event loop.
func (m *Manager) handleMessage(ev event) {
	msg := ev.msg
	if w := m.workers[ev.workerID]; w != nil {
		w.lastHeard = time.Now()
	} else if w := m.workers[msg.WorkerID]; w != nil {
		w.lastHeard = time.Now()
	}
	switch msg.Type {
	case protocol.TypeRegister:
		m.registerWorker(ev.conn, msg)
	case protocol.TypeCacheUpdate:
		m.handleCacheUpdate(msg)
	case protocol.TypeCacheInvalid:
		f, w := m.fh(msg.CacheName), m.wh(msg.WorkerID)
		m.reps.Remove(f, w)
		m.tlog.Add(trace.Event{Time: m.now(), Kind: trace.FileEvicted, Worker: msg.WorkerID, File: msg.CacheName})
	case protocol.TypeComplete:
		m.handleComplete(ev.workerID, msg)
	case protocol.TypeData:
		if ev.spool != nil {
			// The checksum was computed while spooling, off this loop; here
			// we only compare strings.
			if msg.Checksum != "" && ev.spool.sum != msg.Checksum {
				sp := ev.spool
				sp.refs.Store(1)
				m.goBG(sp.release)
				m.deliverFetch(msg.CacheName, fetchResult{err: fmt.Errorf(
					"core: fetched %s from %s failed checksum verification", msg.CacheName, ev.workerID)})
			} else {
				m.deliverFetch(msg.CacheName, fetchResult{spool: ev.spool})
			}
		} else if msg.Checksum != "" && string(hashing.HashBytes(ev.data)) != msg.Checksum {
			m.deliverFetch(msg.CacheName, fetchResult{err: fmt.Errorf(
				"core: fetched %s from %s failed checksum verification", msg.CacheName, ev.workerID)})
		} else {
			m.deliverFetch(msg.CacheName, fetchResult{data: ev.data})
		}
	case protocol.TypeError:
		if msg.CacheName != "" {
			m.deliverFetch(msg.CacheName, fetchResult{err: fmt.Errorf("%s", msg.Error)})
		}
	case protocol.TypeHeartbeat:
		// Liveness only.
	default:
		m.logf("unexpected message type %q from %s", msg.Type, ev.workerID)
	}
}

// checkLiveness pings quiet workers and drops ones that have been silent
// past the timeout — the defense against half-open connections that TCP
// alone never notices (§2.2: workers may leave the system at any time).
func (m *Manager) checkLiveness() {
	if m.cfg.HeartbeatTimeout <= 0 {
		return
	}
	now := time.Now()
	for _, w := range m.workers {
		if w.gone {
			continue
		}
		silent := now.Sub(w.lastHeard)
		if silent > m.cfg.HeartbeatTimeout {
			m.logf("worker %s silent for %v; dropping", w.id, silent.Round(time.Second))
			m.workerGone(w.id)
			continue
		}
		if silent > m.cfg.HeartbeatInterval && now.Sub(w.lastPinged) > m.cfg.HeartbeatInterval {
			w.lastPinged = now
			w.conn.Send(&protocol.Message{Type: protocol.TypeHeartbeat})
		}
	}
}

func (m *Manager) registerWorker(conn *protocol.Conn, msg *protocol.Message) {
	if _, dup := m.workers[msg.WorkerID]; dup {
		m.logf("duplicate worker id %s; rejecting", msg.WorkerID)
		// The rejected connection is already dead to us.
		_ = conn.Close()
		return
	}
	cap := resources.R{Cores: 1}
	if msg.Capacity != nil {
		cap = *msg.Capacity
	}
	w := &workerConn{
		id:           msg.WorkerID,
		conn:         conn,
		transferAddr: msg.TransferAddr,
		capacity:     cap,
		pool:         resources.NewPool(cap),
		running:      make(map[int]bool),
		joinOrder:    m.joinSeq,
		libsReady:    make(map[string]bool),
	}
	w.lastHeard = time.Now()
	m.joinSeq++
	m.join(w)
	m.reconcile = true
	m.tlog.Add(trace.Event{Time: m.now(), Kind: trace.WorkerJoined, Worker: w.id})
	m.logf("worker %s joined with %v", w.id, cap)
	// Deploy every installed library to the newcomer.
	for _, lib := range m.libs {
		m.deployLibraryTo(w, lib)
	}
}

// handleCacheUpdate processes the asynchronous report that an object became
// (or failed to become) present at a worker (§2.3, §3.3).
func (m *Manager) handleCacheUpdate(msg *protocol.Message) {
	f, w := m.fh(msg.CacheName), m.wh(msg.WorkerID)
	if msg.TransferID != "" {
		if tr, ok := m.completeTr(msg.TransferID); ok && msg.Status == protocol.StatusOK {
			m.tlog.Add(trace.Event{
				Time: m.now(), Kind: trace.TransferEnd, Worker: msg.WorkerID,
				File: msg.CacheName, Bytes: msg.Size, Source: sourceLabel(m.names, tr.Source),
			})
			m.sched.TransferLanded(f, w)
		} else if ok {
			m.tlog.Add(trace.Event{
				Time: m.now(), Kind: trace.TransferFailed, Worker: msg.WorkerID,
				File: msg.CacheName, Source: sourceLabel(m.names, tr.Source), Detail: msg.Error,
			})
			m.transferFailed(f, w)
		}
	} else if msg.Status == protocol.StatusOK {
		// Materialization (MiniTask) or adopted cache content.
		if f, known := m.reg.Lookup(msg.CacheName); known && f.Type == files.Mini {
			m.tlog.Add(trace.Event{
				Time: m.now(), Kind: trace.StageEnd, Worker: msg.WorkerID,
				File: msg.CacheName, Bytes: msg.Size,
			})
		}
	}
	if msg.Status == protocol.StatusOK {
		m.reps.Commit(f, w)
		m.reg.SetSize(msg.CacheName, msg.Size)
	} else {
		m.logf("object %s failed at %s: %s", msg.CacheName, msg.WorkerID, msg.Error)
		m.reps.Remove(f, w)
	}
}

// handleComplete processes a task completion report.
func (m *Manager) handleComplete(workerID string, msg *protocol.Message) {
	t := m.tasks[msg.TaskID]
	if t == nil || t.State != taskspec.StateRunning || m.workerName(t) != workerID {
		m.logf("stale completion for task %d from %s", msg.TaskID, workerID)
		return
	}
	if msg.Status == "library-ready" {
		if w := m.workers[workerID]; w != nil {
			w.libsReady[t.spec.Library] = true
			// Function tasks gated on this library may now be assignable.
			m.reconcile = true
		}
		m.tlog.Add(trace.Event{
			Time: m.now(), Kind: trace.LibraryReady, Worker: workerID,
			Detail: t.spec.Library, TaskID: msg.TaskID,
		})
		// The library instance keeps running and keeps its allocation;
		// the task is not finished.
		return
	}

	ok := msg.Status == protocol.StatusOK && msg.ExitCode == 0
	if t.cancelled {
		// The application aborted this task; deliver whatever the worker
		// reported, but never retry.
		ok = false
	}
	if !ok && !t.cancelled && isResourceExhaustion(msg.Error) {
		// §2.1: the task exceeded its declared allocation; depending on
		// configuration, execute it elsewhere with a larger allocation.
		if t.retries < t.spec.MaxRetries {
			m.tlog.Add(trace.Event{
				Time: m.now(), Kind: trace.TaskFailed, Worker: workerID,
				TaskID: msg.TaskID, Detail: "resource exhaustion; retrying larger",
			})
			// Requeue (releasing the original allocation) before growing
			// the request for the next attempt.
			m.requeue(msg.TaskID, t, true)
			t.spec.Resources.Disk *= 2
			t.Req = t.spec.Resources
			return
		}
	}
	if !ok && !t.cancelled && t.retries < t.spec.MaxRetries {
		m.requeue(msg.TaskID, t, true)
		return
	}

	kind := trace.TaskEnd
	if !ok {
		kind = trace.TaskFailed
	}
	m.tlog.Add(trace.Event{
		Time: m.now(), Kind: kind, Worker: workerID, TaskID: msg.TaskID,
		Detail: t.spec.Category,
	})
	// Record produced objects in the replica table.
	for _, out := range msg.Outputs {
		m.reps.Commit(m.fh(out.CacheName), m.wh(workerID))
		m.reg.SetSize(out.CacheName, out.Size)
	}
	res := &Result{
		TaskID:         msg.TaskID,
		Worker:         workerID,
		OK:             ok,
		ExitCode:       msg.ExitCode,
		Error:          msg.Error,
		Output:         msg.Result,
		Outputs:        msg.Outputs,
		StagedMS:       msg.TimeStagedMS,
		RunMS:          msg.TimeRunMS,
		MeasuredDisk:   msg.MeasuredDisk,
		MeasuredMemory: msg.MeasuredMemory,
	}
	m.recordCategory(t, res)
	m.finishTask(msg.TaskID, t, res)
	if ok {
		m.returnOutputs(t)
	}
}

// returnOutputs delivers outputs bound to manager-side destinations: only
// final outputs are placed back in the reliable shared filesystem, while
// temps stay in the cluster (Figure 2). Fetches run asynchronously so the
// event loop never blocks.
func (m *Manager) returnOutputs(t *taskState) {
	for _, out := range t.spec.Outputs {
		f, ok := m.reg.Lookup(out.FileID)
		if !ok || f.Type != files.Local {
			continue
		}
		fileID, dest := out.FileID, f.Source
		m.goBG(func() {
			reply := make(chan fetchResult, 1)
			select {
			case m.events <- event{kind: evFetch, file: fileID, fetch: reply}:
			case <-m.loopDone:
				return
			}
			var r fetchResult
			select {
			case r = <-reply:
			case <-m.loopDone:
				// The loop exited after accepting the event; it may still
				// have resolved the fetch into the buffered reply.
				select {
				case r = <-reply:
				default:
					return
				}
			}
			if r.err != nil {
				m.logf("returning output %s to %s: %v", fileID, dest, r.err)
				return
			}
			if r.spool != nil {
				// Stream the spooled object into place rather than loading
				// it into memory.
				err := copyFileAtomic(dest, r.spool.path)
				r.spool.release()
				if err != nil {
					m.logf("writing output %s: %v", dest, err)
				}
				return
			}
			if err := writeFileAtomic(dest, r.data); err != nil {
				m.logf("writing output %s: %v", dest, err)
			}
		})
	}
}

// startFetch begins retrieving a file's content back to the manager. All
// live holders are candidates, tried in sorted order until one accepts the
// request; the reply (or the holder's death, which restarts the fetch via
// workerGone) resolves every waiter.
func (m *Manager) startFetch(fileID string, reply chan fetchResult) {
	f, ok := m.reg.Lookup(fileID)
	if !ok {
		reply <- fetchResult{err: fmt.Errorf("core: unknown file %s", fileID)}
		return
	}
	var live []*workerConn
	for _, h := range m.reps.Locate(m.fh(fileID)) {
		if w := m.workerAt(h); w != nil && !w.gone {
			live = append(live, w)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	if len(live) == 0 {
		// No cluster replica: local files can be read from the manager's
		// own filesystem. The disk read happens off the event loop; the
		// reply channel is buffered with one slot and this is its single
		// sender, so the goroutine never blocks on delivery.
		if f.Type == files.Local {
			src := f.Source
			m.goBG(func() {
				data, err := readLocal(src)
				reply <- fetchResult{data: data, err: err}
			})
			return
		}
		reply <- fetchResult{err: fmt.Errorf("core: no replica of %s in the cluster", fileID)}
		return
	}
	waiting := m.fetches[fileID]
	m.fetches[fileID] = append(waiting, reply)
	if len(waiting) > 0 {
		return // a request is already outstanding; ride along
	}
	for _, w := range live {
		if err := w.conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: fileID}); err == nil {
			return
		}
	}
	m.deliverFetch(fileID, fetchResult{err: fmt.Errorf("core: every holder of %s refused the fetch", fileID)})
}

func (m *Manager) deliverFetch(fileID string, r fetchResult) {
	waiters := m.fetches[fileID]
	delete(m.fetches, fileID)
	if r.spool != nil {
		if len(waiters) == 0 {
			// A data reply with nobody waiting (stale or duplicate fetch);
			// discard the spool off the loop.
			sp := r.spool
			sp.refs.Store(1)
			m.goBG(sp.release)
			return
		}
		// One reference per waiter; the last consumer removes the file.
		r.spool.refs.Store(int32(len(waiters)))
	}
	for _, ch := range waiters {
		ch <- r // eventloop-ok: every waiter channel is buffered with one slot per registered fetch, and this is its single send
	}
}

// deployLibraryTo sends an internal LibraryTask to a worker (§3.4).
func (m *Manager) deployLibraryTo(w *workerConn, lib *librarySpec) {
	if w.gone || w.libsReady[lib.name] {
		return
	}
	for id := range w.running { // hotpath-ok: bounded by one worker's running tasks
		if t := m.tasks[id]; t != nil && t.library && t.spec.Library == lib.name {
			return // already deploying
		}
	}
	if !w.pool.Alloc(lib.res) {
		// No room now; reconcileLibraries re-attempts on every scheduling
		// pass until an instance fits.
		return
	}
	m.nextID++
	id := m.nextID
	spec := &taskspec.Spec{
		ID:        id,
		Kind:      taskspec.KindLibrary,
		Library:   lib.name,
		Resources: lib.res,
		Category:  "library",
	}
	t := m.track(id, spec)
	t.library, t.Worker = true, w.h
	m.sched.SetState(id, &t.Task, taskspec.StateRunning)
	m.libCount[taskspec.StateRunning]++
	w.running[id] = true
	if err := w.conn.Send(&protocol.Message{Type: protocol.TypeTask, TaskID: id, Spec: spec}); err != nil {
		m.logf("deploying library %s to %s: %v", lib.name, w.id, err)
		delete(w.running, id)
		w.pool.Release(lib.res)
		m.dropTask(id, t)
	}
	m.refresh(w)
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

// workerGone handles the departure of a worker (§2.2: workers may join
// and leave dynamically): the engine drops its replicas and transfers,
// requeues its tasks and re-executes the producers of temps lost with it.
func (m *Manager) workerGone(workerID string) {
	w := m.workers[workerID]
	if w == nil || w.gone {
		return
	}
	w.gone = true
	m.reconcile = true
	// The connection is usually already broken by the time we get here.
	_ = w.conn.Close()
	m.tlog.Add(trace.Event{Time: m.now(), Kind: trace.WorkerLeft, Worker: workerID})
	m.logf("worker %s left", workerID)
	affected, cancelled := m.sched.WorkerLost(w.h)
	for _, tr := range cancelled {
		delete(m.transferIDs, m.transferUUID(tr))
	}
	delete(m.workers, workerID)
	// Files below their replication goal are traced; the reconcile pass
	// tops them up.
	for _, f := range affected {
		fid := m.fileID(f)
		if goal, left := m.replicaGoals[fid], m.reps.CountReplicas(f); goal > 1 && left < goal {
			m.tlog.Add(trace.Event{
				Time: m.now(), Kind: trace.ReplicaLost, Worker: workerID, File: fid,
				Detail: fmt.Sprintf("%d/%d", left, goal),
			})
		}
	}
	// Pending manager fetches served by this worker must be restarted
	// against a surviving holder. Snapshot-and-reset first: startFetch
	// re-registers waiters in m.fetches, and mutating a map mid-range can
	// revisit re-added keys, which would enqueue a waiter twice.
	pending := m.fetches
	m.fetches = make(map[string][]chan fetchResult)
	var fids []string
	for fid := range pending {
		fids = append(fids, fid)
	}
	sort.Strings(fids)
	for _, fid := range fids {
		for _, ch := range pending[fid] {
			m.startFetch(fid, ch)
		}
	}
}

// endWorkflow broadcasts workflow conclusion; with release=true workers are
// shut down entirely (manager closing).
func (m *Manager) endWorkflow(release bool) {
	for _, fid := range m.reg.WorkflowGarbage() {
		f := m.fh(fid)
		for _, wid := range m.reps.Locate(f) {
			m.reps.Remove(f, wid)
		}
	}
	for _, w := range m.workers {
		if w.gone {
			continue
		}
		w.conn.Send(&protocol.Message{Type: protocol.TypeEndWorkflow})
		if release {
			w.conn.Send(&protocol.Message{Type: protocol.TypeRelease})
		}
		for lib := range w.libsReady {
			delete(w.libsReady, lib)
		}
	}
	if release {
		m.closing = true
		for fileID := range m.fetches {
			m.deliverFetch(fileID, fetchResult{err: fmt.Errorf("core: manager closed")})
		}
		m.dumpTrace()
	}
	// Replicas were dropped and libraries reset.
	m.reconcile = true
}

// dumpTrace writes the workflow's transaction log (the execution trace as
// CSV) to the configured file at shutdown. The event snapshot is taken on
// the loop; the disk write runs on a tracked background goroutine, which
// Close waits for after the loop drains — the file is complete on disk by
// the time Close returns.
func (m *Manager) dumpTrace() {
	if m.cfg.TraceFile == "" {
		return
	}
	path := m.cfg.TraceFile
	events := m.tlog.Events()
	m.goBG(func() {
		f, err := os.Create(path)
		if err != nil {
			m.logf("writing trace file: %v", err)
			return
		}
		err = trace.WriteCSV(f, events)
		// A close failure after writing means the log may be truncated on
		// disk; that is a write failure, not a cleanup detail.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			m.logf("writing trace file: %v", err)
		}
	})
}

// handleInvoke places a function-call submission: routed directly when an
// instance of the library is ready, queued for normal scheduling otherwise.
func (m *Manager) handleInvoke(ev event) {
	m.nextID++
	id := m.nextID
	ev.spec.ID = id
	t := m.track(id, ev.spec)
	t.submitTime = m.now()
	m.pendingWk++
	m.vm.TasksSubmitted.Inc()
	m.reg.Retain(ev.spec.InputIDs())
	for _, out := range ev.spec.Outputs {
		m.reg.SetProducer(out.FileID, id)
	}
	w := m.readyLibraryWorkerFor(ev.spec)
	if w == nil {
		m.sched.Submit(id, &t.Task)
		ev.replyInt <- id
		return
	}
	// Direct route: the instance's static allocation covers execution, so
	// the task itself holds a zero allocation (balanced by finishTask's
	// release).
	m.sched.SetState(id, &t.Task, taskspec.StateWaiting)
	t.Worker = w.h
	m.sched.Run(id, &t.Task)
	w.running[id] = true
	w.pool.Alloc(resources.R{})
	m.refresh(w)
	m.vm.DispatchLatency.Observe(m.now() - t.submitTime)
	m.tlog.Add(trace.Event{
		Time: m.now(), Kind: trace.TaskStart, Worker: w.id, TaskID: id,
		Detail: t.spec.Category,
	})
	if err := w.conn.Send(&protocol.Message{Type: protocol.TypeInvoke, TaskID: id, Spec: ev.spec}); err != nil {
		m.logf("invoking %s.%s on %s: %v", ev.spec.Library, ev.spec.Function, w.id, err)
		m.vm.SendErrors.With("invoke").Inc()
		m.requeue(id, t, false)
	}
	ev.replyInt <- id
}

// readyLibraryWorkerFor picks a worker for the direct invoke route: the
// earliest-joined live worker running a ready instance of the library (join
// order keeps the choice deterministic) that holds every input. For a
// chained invocation referencing a handle, the point of pass-by-reference
// is that the call runs where the object lives; when no such worker holds
// all inputs the call falls back to the queue, where the scheduler stages
// the objects via the normal transfer machinery.
func (m *Manager) readyLibraryWorkerFor(spec *taskspec.Spec) *workerConn {
live:
	for _, wi := range m.sched.Live() {
		w := m.byHandle[wi.ID]
		if !w.libsReady[spec.Library] {
			continue
		}
		for _, mt := range spec.Inputs {
			if !m.reps.Has(m.fh(mt.FileID), w.h) {
				continue live
			}
		}
		return w
	}
	return nil
}

// cancelTask aborts a task on the application's behalf; reports whether the
// task was cancellable.
func (m *Manager) cancelTask(id int) bool {
	t := m.tasks[id]
	if t == nil || t.library {
		return false
	}
	switch t.State {
	case taskspec.StateWaiting, taskspec.StateStaging:
		// The queue drops the task once it is no longer waiting.
		t.cancelled = true
		m.vm.TasksCancelled.Inc()
		m.finishTask(id, t, &Result{
			TaskID: id, Worker: m.workerName(t), OK: false, ExitCode: -1, Error: "cancelled",
		})
		return true
	case taskspec.StateRunning:
		// A cancelled task reads no input again, so none of them counts as
		// needed by lost-temp recovery.
		t.cancelled, t.Inputs = true, nil
		m.vm.TasksCancelled.Inc()
		if w := m.workerAt(t.Worker); w != nil && !w.gone {
			if err := w.conn.Send(&protocol.Message{Type: protocol.TypeKill, TaskID: id}); err != nil {
				m.logf("killing task %d on %s: %v", id, w.id, err)
			}
		}
		return true
	}
	return false
}
