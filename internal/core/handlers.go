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
		m.placementGone(msg.CacheName, msg.WorkerID)
		m.reps.Remove(msg.CacheName, msg.WorkerID)
		m.tlog.Add(trace.Event{Time: m.now(), Kind: trace.FileEvicted, Worker: msg.WorkerID, File: msg.CacheName})
		// Staging tasks that counted on the evicted replica must replan.
		m.wakeFile(msg.CacheName)
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
	// Framing negotiation: a worker advertising binary gets its messages in
	// binary frames from here on, and the register ack — its first binary
	// frame — tells it to upgrade its own sends. Workers that said nothing
	// (or a manager configured JSON-only) stay on JSON; receive-side
	// autodetect makes either choice safe mid-stream.
	if msg.Proto >= protocol.ProtoBinary && !m.cfg.DisableBinaryProto {
		conn.EnableBinary()
		if err := conn.Send(&protocol.Message{Type: protocol.TypeRegister, Proto: protocol.ProtoBinary}); err != nil {
			m.logf("acking registration of %s: %v", msg.WorkerID, err)
		}
	}
	m.joinSeq++
	m.workers[w.id] = w
	m.liveCount++
	m.workersDirty = true
	m.needFull = true
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
	if msg.TransferID != "" {
		if tr, ok := m.trs.Complete(msg.TransferID); ok && msg.Status == protocol.StatusOK {
			m.tlog.Add(trace.Event{
				Time: m.now(), Kind: trace.TransferEnd, Worker: msg.WorkerID,
				File: msg.CacheName, Bytes: msg.Size, Source: sourceLabel(tr.Source),
			})
			m.clearTransferFailure(msg.CacheName, msg.WorkerID)
			m.placementLanded(msg.CacheName, msg.WorkerID)
		} else if ok {
			m.tlog.Add(trace.Event{
				Time: m.now(), Kind: trace.TransferFailed, Worker: msg.WorkerID,
				File: msg.CacheName, Source: sourceLabel(tr.Source), Detail: msg.Error,
			})
			m.noteTransferFailure(msg.CacheName, msg.WorkerID)
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
		m.reps.Commit(msg.CacheName, msg.WorkerID)
		m.reg.SetSize(msg.CacheName, msg.Size)
	} else {
		m.logf("object %s failed at %s: %s", msg.CacheName, msg.WorkerID, msg.Error)
		m.reps.Remove(msg.CacheName, msg.WorkerID)
	}
	// Retry exactly the tasks this object could unblock; a finished (or
	// failed) supervised transfer also changes per-source slot accounting,
	// which can unblock any staging task's plan.
	m.wakeFile(msg.CacheName)
	if msg.TransferID != "" {
		m.stagingAll = true
	}
}

// handleComplete processes a task completion report.
func (m *Manager) handleComplete(workerID string, msg *protocol.Message) {
	t := m.tasks[msg.TaskID]
	if t == nil || t.state != taskspec.StateRunning || t.worker != workerID {
		m.logf("stale completion for task %d from %s", msg.TaskID, workerID)
		return
	}
	if msg.Status == "library-ready" {
		if w := m.workers[workerID]; w != nil {
			w.libsReady[t.spec.Library] = true
			// Function tasks gated on this library may now be assignable.
			m.needFull = true
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
	// Record produced objects in the replica table and wake their consumers.
	for _, out := range msg.Outputs {
		m.reps.Commit(out.CacheName, workerID)
		m.reg.SetSize(out.CacheName, out.Size)
		m.wakeFile(out.CacheName)
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
	holders := m.reps.Locate(fileID)
	sort.Strings(holders)
	var live []*workerConn
	for _, h := range holders {
		if w := m.workers[h]; w != nil && !w.gone {
			live = append(live, w)
		}
	}
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
	t := &taskState{spec: spec, state: taskspec.StateRunning, worker: w.id, library: true}
	m.trackNew(id, t)
	w.running[id] = true
	if err := w.conn.Send(&protocol.Message{Type: protocol.TypeTask, TaskID: id, Spec: spec}); err != nil {
		m.logf("deploying library %s to %s: %v", lib.name, w.id, err)
		delete(w.running, id)
		w.pool.Release(lib.res)
		m.dropTask(id, t)
	}
}

// workerGone handles the departure of a worker: replicas are dropped,
// in-flight transfers cancelled, and its tasks requeued (§2.2: workers may
// join and leave dynamically).
func (m *Manager) workerGone(workerID string) {
	w := m.workers[workerID]
	if w == nil || w.gone {
		return
	}
	w.gone = true
	m.liveCount--
	m.workersDirty = true
	m.needFull = true
	m.stagingAll = true
	// The connection is usually already broken by the time we get here.
	_ = w.conn.Close()
	m.tlog.Add(trace.Event{Time: m.now(), Kind: trace.WorkerLeft, Worker: workerID})
	m.logf("worker %s left", workerID)

	m.placementDropWorker(workerID)
	affected := m.reps.DropWorker(workerID)
	cancelled := m.trs.DropWorker(workerID)
	for _, tr := range cancelled {
		if tr.Dest != workerID {
			// A receiver was fetching from the departed worker; its fetch
			// will fail and report via cache-update, but drop the pending
			// replica now so planning can pick a new source immediately.
			m.reps.Remove(tr.File, tr.Dest)
		}
	}
	// Forget the dead worker's transfer failure history.
	for key := range m.transferRetry {
		if key.dest == workerID {
			delete(m.transferRetry, key)
		}
	}
	for id := range w.running {
		t := m.tasks[id]
		if t == nil {
			continue
		}
		if t.library {
			// The instance died with its node; reconcileLibraries redeploys
			// on the survivors (and here again, should this worker return).
			delete(w.running, id)
			m.dropTask(id, t)
			continue
		}
		if t.cancelled {
			m.finishTask(id, t, &Result{
				TaskID: id, Worker: workerID, OK: false, ExitCode: -1, Error: "cancelled",
			})
			continue
		}
		m.requeue(id, t, false)
	}
	delete(m.workers, workerID)
	// Repair what the departure broke: top up under-replicated files and
	// re-execute producers of temp files that lost their last replica.
	m.repairReplicas(workerID, affected)
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
		for _, wid := range m.reps.Locate(fid) {
			m.placementGone(fid, wid)
			m.reps.Remove(fid, wid)
		}
	}
	if release {
		// Any placement still unresolved when the run ends was moved for
		// nothing; flush it as waste so the conservation law closes.
		m.placementFlush()
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
	// Replicas were dropped and libraries reset; replan everything.
	m.needFull = true
	m.stagingAll = true
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
	t := &taskState{spec: ev.spec, state: taskspec.StateWaiting, submitTime: m.now()}
	m.trackNew(id, t)
	m.pendingWk++
	m.vm.TasksSubmitted.Inc()
	m.reg.Retain(ev.spec.InputIDs())
	for _, out := range ev.spec.Outputs {
		m.reg.SetProducer(out.FileID, id)
	}
	w := m.readyLibraryWorkerFor(ev.spec)
	if w == nil {
		m.waiting = append(m.waiting, id)
		m.wakeSet[id] = true
		ev.replyInt <- id
		return
	}
	// Direct route: the instance's static allocation covers execution, so
	// the task itself holds a zero allocation (balanced by finishTask's
	// release).
	for _, mt := range ev.spec.Inputs {
		m.placementUse(mt.FileID, w.id)
	}
	m.setState(id, t, taskspec.StateRunning)
	t.worker = w.id
	w.running[id] = true
	w.pool.Alloc(resources.R{})
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

// readyLibraryWorker picks the earliest-joined live worker running an
// instance of the library (join order keeps the choice deterministic).
func (m *Manager) readyLibraryWorker(lib string) *workerConn {
	var best *workerConn
	for _, w := range m.workers {
		if w.gone || !w.libsReady[lib] {
			continue
		}
		if best == nil || w.joinOrder < best.joinOrder {
			best = w
		}
	}
	return best
}

// readyLibraryWorkerFor picks a worker for the direct invoke route. For a
// spec with no inputs any ready instance of the library will do. For a spec
// with inputs — a chained invocation referencing a handle — only a worker
// that already holds every input replica qualifies: the point of
// pass-by-reference is that the call runs where the object lives. When no
// ready-instance worker holds all inputs the call falls back to the queue,
// where the scheduler stages the objects via the normal transfer machinery.
func (m *Manager) readyLibraryWorkerFor(spec *taskspec.Spec) *workerConn {
	if len(spec.Inputs) == 0 {
		return m.readyLibraryWorker(spec.Library)
	}
	var best *workerConn
	for _, w := range m.workers {
		if w.gone || !w.libsReady[spec.Library] {
			continue
		}
		holdsAll := true
		for _, mt := range spec.Inputs {
			if !m.reps.Has(mt.FileID, w.id) {
				holdsAll = false
				break
			}
		}
		if !holdsAll {
			continue
		}
		if best == nil || w.joinOrder < best.joinOrder {
			best = w
		}
	}
	return best
}

// cancelTask aborts a task on the application's behalf; reports whether the
// task was cancellable.
func (m *Manager) cancelTask(id int) bool {
	t := m.tasks[id]
	if t == nil || t.library {
		return false
	}
	switch t.state {
	case taskspec.StateWaiting, taskspec.StateStaging:
		t.cancelled = true
		m.vm.TasksCancelled.Inc()
		for i, wid := range m.waiting {
			if wid == id {
				m.waiting = append(m.waiting[:i], m.waiting[i+1:]...)
				break
			}
		}
		m.finishTask(id, t, &Result{
			TaskID: id, Worker: t.worker, OK: false, ExitCode: -1, Error: "cancelled",
		})
		return true
	case taskspec.StateRunning:
		t.cancelled = true
		m.vm.TasksCancelled.Inc()
		if w := m.workers[t.worker]; w != nil && !w.gone {
			if err := w.conn.Send(&protocol.Message{Type: protocol.TypeKill, TaskID: id}); err != nil {
				m.logf("killing task %d on %s: %v", id, t.worker, err)
			}
		}
		return true
	}
	return false
}
