package sim

import (
	"fmt"
	"sort"
	"time"

	"taskvine/internal/cache"
	"taskvine/internal/chaos"
	"taskvine/internal/metrics"
	"taskvine/internal/policy"
	"taskvine/internal/replica"
	"taskvine/internal/resources"
	"taskvine/internal/sched"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
)

// Cluster executes a Workload through the production scheduling policy in
// virtual time and records a trace compatible with the real manager's.
type Cluster struct {
	eng    *Engine
	net    *Network
	params Params
	limits policy.Limits
	log    *trace.Log
	// metrics mirrors the real manager's instrument set (same family
	// names), fed by the trace bridge plus the few direct instruments the
	// trace doesn't carry, so a simulated run's /metrics-equivalent snapshot
	// diffs cleanly against a real run's.
	reg *metrics.Registry
	vm  *metrics.VineMetrics

	workload *Workload
	// names interns the workload's file and worker IDs once, in NewCluster;
	// the scheduling pass works on the handles and reads a name only to
	// trace, to inject a fault, or to break a tie the way a name-keyed
	// implementation would.
	names *replica.Names
	// sched is the scheduling engine; reps and trs are the view's replica
	// and transfer tables, whose mutations wake the parked tasks they
	// concern.
	sched *sched.Engine
	reps  *replica.Table
	trs   *replica.Transfers

	manager  *Endpoint
	sharedFS *Endpoint
	urls     *Endpoint

	// files is indexed by file handle, workers by worker handle less one
	// (handles follow w.Workers, which is join order), and tasks by task
	// index: position in ID order, so that ordering indices orders IDs.
	files   []simFile
	workers []*simWorker
	tasks   []*simTask
	// evictions counts cache evictions, so a staging task can tell whether
	// starting its transfers evicted anything.
	evictions int
	// needsBuf and plan are the scratch needs and transfer plan of library
	// environments. managerSrc is the manager's fixed source.
	needsBuf   []policy.FileNeed
	plan       policy.Plan
	managerSrc replica.Source

	// libs are the libraries to deploy on every worker, in name order;
	// tasks and workers refer to them by position.
	libs []*Library

	scheduled bool // a schedule pass is queued
	completed int
	// reopenAt is when the queued pass for a backoff window opening is due,
	// zero for none.
	reopenAt float64

	// The engine and network callbacks, bound once in NewCluster: each
	// takes a worker index, or a slot of xfers, unpacks or runs, which
	// hold the rest of what a pending event needs.
	passFn, reopenFn, joinFn, leaveFn, transferFn, unpackFn, runFn, returnFn func(int)

	xfers   slots[simTransfer]
	unpacks slots[simUnpack]
	runs    slots[taskRun]

	// view is the policy's read-only View over reps and trs.
	view *policy.View

	// faults is the seeded fault injector; nil disables injection. Because
	// the injector's decisions depend only on its seed and each site's
	// opportunity history, a faulted simulation replays bit-for-bit.
	faults *chaos.Injector
}

// simFile is one file's interned state. File is nil for a name the
// workload references without describing.
type simFile struct {
	*File
	// mini lists a MiniProduct's inputs; fixed is a URL, shared-FS or
	// manager file's fixed source, interned on its first need.
	mini  []replica.FileH
	fixed replica.Source
	// producer is the index of the task producing the file, plus one.
	producer int
	// atManager records a produced object returned to the manager
	// (shared-storage mode): consumers re-fetch it from there.
	atManager bool
}

type simWorker struct {
	spec WorkerSpec
	h    replica.WorkerH
	// label names the worker as a transfer source in the trace.
	label string
	ep    *Endpoint
	pool  *resources.Pool
	// disk tracks resident objects for disk accounting and eviction.
	disk *cache.Policy[replica.FileH]
	// running lists the indices of the tasks staged or running here; each
	// task's runAt is its position.
	running   []int
	joinOrder int
	joined    bool
	// libReady and libBoot mark, by library position, the instances
	// ready and the deployments in progress here.
	libReady []bool
	libBoot  []bool
}

type simTask struct {
	// Task holds the scheduling state; its Inputs are t.Inputs' handles
	// and its request is t.Cores, at least one.
	sched.Task
	t *Task
	// outputs are t.Outputs' handles; lib is the position of t.Library
	// plus one, zero for none and -1 for a library the workload does not
	// deploy.
	outputs []replica.FileH
	lib     int
	runAt   int
	started float64
	// epoch increments on every requeue; callbacks from a previous
	// assignment (task-finish timers, return flows) check it and drop.
	epoch int
}

// simTransfer is an object transfer in flight to a worker.
type simTransfer struct {
	id replica.TransferID
	fh replica.FileH
	w  *simWorker
	// label names the source in the trace; fault is the injected fault,
	// decided when the transfer started.
	label string
	fault chaos.Action
}

// simUnpack is a MiniTask product being unpacked at a worker.
type simUnpack struct {
	fh replica.FileH
	w  *simWorker
}

// taskRun is one assignment of a task to a worker: a run whose finish, or
// an output return, is pending. An event whose epoch is no longer the
// task's belongs to an assignment that was preempted.
type taskRun struct {
	id, epoch int
	w         *simWorker
}

// slots is a table of records that pending events name by position; free
// lists the positions not in use.
type slots[T any] struct {
	items []T
	free  []int
}

// put stores v and returns its slot.
func (s *slots[T]) put(v T) int {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.items[i] = v
		return i
	}
	s.items = append(s.items, v)
	return len(s.items) - 1
}

// take returns the record at slot i and frees the slot.
func (s *slots[T]) take(i int) T {
	v := s.items[i]
	var zero T
	s.items[i] = zero
	s.free = append(s.free, i)
	return v
}

func capped(ep *Endpoint, perFlow float64) *Endpoint {
	ep.PerFlowBW = perFlow
	return ep
}

// NewCluster builds a simulation of the workload under the given network
// parameters and transfer limits.
func NewCluster(w *Workload, params Params, limits policy.Limits) *Cluster {
	eng := NewEngine()
	c := &Cluster{
		eng:      eng,
		net:      NewNetwork(eng),
		params:   params,
		limits:   limits,
		log:      trace.NewLog(),
		workload: w,
		names:    replica.NewNames(),
		manager:  capped(NewEndpoint("manager", params.ManagerBW), params.PerFlowBW),
		urls:     capped(NewEndpoint("url", params.URLBW), params.PerFlowBW),
		sharedFS: capped(NewEndpoint("shared-fs", params.SharedFSBW), params.PerFlowBW),
	}
	c.passFn, c.reopenFn, c.joinFn, c.leaveFn = c.pass, c.reopen, c.joinAt, c.leaveAt
	c.transferFn, c.unpackFn, c.runFn, c.returnFn = c.transferDone, c.unpackDone, c.runDone, c.returnDone
	c.view = policy.NewView(c.names)
	c.managerSrc = c.names.FixedSource(replica.SourceManager, "manager")
	c.reg = metrics.NewRegistry()
	c.vm = metrics.ForRegistry(c.reg)
	c.reps, c.trs = c.view.Reps, c.view.Trs
	metrics.BridgeTrace(c.log, c.vm)
	// Deploy order is name order: deployLibrary consumes cores, so the
	// order in which libraries land must not depend on the workload's.
	byName := map[string]*Library{}
	for _, lib := range w.Libraries {
		byName[lib.Name] = lib
	}
	for _, lib := range byName {
		c.libs = append(c.libs, lib)
	}
	sort.Slice(c.libs, func(i, j int) bool { return c.libs[i].Name < c.libs[j].Name })
	c.names.Workers.Reserve(len(w.Workers))
	for i, ws := range w.Workers {
		bw := ws.BW
		if bw == 0 {
			bw = params.WorkerBW
		}
		sw := &simWorker{
			spec:      ws,
			h:         c.names.Workers.Intern(ws.ID),
			label:     "worker:" + ws.ID,
			ep:        NewEndpoint(ws.ID, bw),
			pool:      resources.NewPool(resources.R{Cores: ws.Cores, Disk: ws.Disk, Memory: resources.TB}),
			disk:      cache.NewPolicy[replica.FileH](ws.Disk),
			joinOrder: i,
			libReady:  make([]bool, len(c.libs)),
			libBoot:   make([]bool, len(c.libs)),
		}
		sw.ep.OverheadPerFlow = params.OverheadPerFlow
		sw.ep.PerFlowBW = params.PerFlowBW
		if params.WorkerUpBW > 0 {
			sw.ep.UpBW = params.WorkerUpBW
		}
		c.workers = append(c.workers, sw)
		eng.CallAt(ws.JoinTime, c.joinFn, i)
		if ws.LeaveTime > 0 {
			eng.CallAt(ws.LeaveTime, c.leaveFn, i)
		}
	}
	// Tasks in ID order, so that a task's index orders like its ID.
	order := w.Tasks
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i].ID < order[j].ID }) {
		order = append([]*Task(nil), order...)
		sort.SliceStable(order, func(i, j int) bool { return order[i].ID < order[j].ID })
	}
	c.names.Files.Reserve(len(w.Files))
	c.files = make([]simFile, 1, len(w.Files)+1)
	// One allocation each for the tasks and for all their file handles.
	nFiles := 0
	for _, t := range order {
		nFiles += len(t.Inputs) + len(t.Outputs)
	}
	handles := make([]replica.FileH, 0, nFiles)
	tasks := make([]simTask, len(order))
	c.tasks = make([]*simTask, len(order))
	for i, t := range order {
		st := &tasks[i]
		st.t, st.lib = t, c.libIndex(t.Library)
		st.Req = resources.R{Cores: max(t.Cores, 1)}
		for _, in := range t.Inputs {
			handles = append(handles, c.internFile(in))
		}
		st.Inputs = handles[len(handles)-len(t.Inputs) : len(handles) : len(handles)]
		c.tasks[i] = st
	}
	// Producers in submission order: a later producer of the same file
	// takes over, as with any name-keyed index.
	for i, t := range w.Tasks {
		if len(order) > 0 && &order[0] != &w.Tasks[0] {
			i = sort.Search(len(order), func(i int) bool { return order[i].ID >= t.ID })
		}
		st := c.tasks[i]
		for _, out := range t.Outputs {
			h := c.internFile(out.ID)
			handles = append(handles, h)
			c.files[h].producer = i + 1
		}
		st.outputs = handles[len(handles)-len(t.Outputs) : len(handles) : len(handles)]
	}
	// Intern every other name a run can reach, so c.files never grows (and
	// never moves) once the run starts.
	for _, lib := range w.Libraries {
		if lib.EnvFile != "" {
			c.internFile(lib.EnvFile)
		}
	}
	for _, ws := range w.Workers {
		for _, fid := range ws.Prestaged {
			c.internFile(fid)
		}
	}
	// The engine comes last, sized to every name interned above.
	c.sched = sched.New(host{c}, c.view, limits, c.vm)
	c.sched.IgnoreLocality = params.IgnoreLocality
	for i, st := range c.tasks {
		c.sched.Submit(i, &st.Task)
	}
	c.vm.TasksSubmitted.Add(int64(len(order)))
	return c
}

// internFile returns a file's handle, building its simFile on first sight.
func (c *Cluster) internFile(id string) replica.FileH {
	h := c.names.Files.Intern(id)
	if int(h) < len(c.files) {
		return h
	}
	c.files = append(c.files, simFile{File: c.workload.Files[id]})
	f := &c.files[h]
	if f.File == nil {
		return h
	}
	switch f.Kind {
	case FromManager:
		f.fixed = c.managerSrc
	case MiniProduct:
		mini := make([]replica.FileH, len(f.MiniInputs))
		for i, in := range f.MiniInputs {
			mini[i] = c.internFile(in) // may move c.files
		}
		c.files[h].mini = mini
	}
	return h
}

// fileName returns the ID a file handle was interned from.
func (c *Cluster) fileName(h replica.FileH) string { return c.names.Files.Name(h) }

// worker returns the worker with handle h.
func (c *Cluster) worker(h replica.WorkerH) *simWorker { return c.workers[h-1] }

// InjectFaults arms the cluster with a seeded fault injector. Call before
// Run; a nil injector leaves the simulation fault-free.
func (c *Cluster) InjectFaults(inj *chaos.Injector) {
	c.faults = inj
	inj.SetMetrics(c.vm.ChaosInjections)
}

// Trace returns the recorded event log.
func (c *Cluster) Trace() *trace.Log { return c.log }

// Metrics returns the simulation's instrument registry. Family names match
// the real manager's, so snapshots of a simulated and a real run of the
// same workload are directly diffable.
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// Engine exposes the virtual clock, for tests.
func (c *Cluster) Engine() *Engine { return c.eng }

// CompletedTasks returns how many tasks finished.
func (c *Cluster) CompletedTasks() int { return c.completed }

// Run simulates until all tasks complete or no progress is possible; it
// returns the makespan in virtual seconds.
func (c *Cluster) Run() float64 {
	c.requestSchedule()
	return c.eng.Run(0)
}

func (c *Cluster) joinAt(i int)  { c.workerJoin(c.workers[i]) }
func (c *Cluster) leaveAt(i int) { c.workerLeave(c.workers[i]) }

func (c *Cluster) workerJoin(w *simWorker) {
	w.joined = true
	c.sched.Join(w.h, w.joinOrder)
	c.refresh(w)
	c.log.Add(trace.Event{Time: c.eng.Now(), Kind: trace.WorkerJoined, Worker: w.spec.ID})
	for _, fid := range w.spec.Prestaged {
		h := c.internFile(fid)
		f := c.files[h].File
		if f == nil {
			panic(fmt.Sprintf("sim: prestaged unknown file %s", fid))
		}
		c.store(w, h, f.Size)
	}
	for i := range c.libs {
		c.deployLibrary(w, i)
	}
	c.requestSchedule()
}

// refresh copies a joined worker's free resources and task count into the
// live view; every Alloc, Release and running-list change calls it.
func (c *Cluster) refresh(w *simWorker) {
	c.sched.Refresh(w.h, w.pool.Free(), len(w.running))
}

// addRunning and dropRunning keep a worker's running list and its tasks'
// positions in it.
func (w *simWorker) addRunning(id int, t *simTask) {
	t.runAt = len(w.running)
	w.running = append(w.running, id)
}

func (c *Cluster) dropRunning(w *simWorker, t *simTask) {
	last := len(w.running) - 1
	moved := w.running[last]
	w.running[t.runAt] = moved
	c.tasks[moved].runAt = t.runAt
	w.running = w.running[:last]
}

// workerLeave preempts a worker: the engine drops every replica it held
// and the transfers touching it, returns its tasks to the waiting queue and
// re-executes the producers of temps lost with it (§2.2: workers may join
// and leave dynamically).
func (c *Cluster) workerLeave(w *simWorker) {
	if !w.joined {
		return
	}
	c.log.Add(trace.Event{Time: c.eng.Now(), Kind: trace.WorkerLeft, Worker: w.spec.ID})
	w.joined = false
	c.sched.WorkerLost(w.h)
	w.running = nil
	// Reset the pool and cache: the node is gone.
	w.pool = resources.NewPool(resources.R{Cores: w.spec.Cores, Disk: w.spec.Disk, Memory: resources.TB})
	w.disk = cache.NewPolicy[replica.FileH](w.spec.Disk)
	clear(w.libReady)
	clear(w.libBoot)
	c.requestSchedule()
}

// requestSchedule coalesces schedule passes: at most one pending pass,
// ControlLatency after the triggering event.
func (c *Cluster) requestSchedule() {
	if c.scheduled {
		return
	}
	c.scheduled = true
	c.eng.Call(c.params.ControlLatency, c.passFn, 0)
}

// pass runs the queued schedule pass. A start its backoff window refused
// waits on no event, so the pass queues one for when the earliest such
// window opens, unless one is queued for then or earlier.
func (c *Cluster) pass(int) {
	c.scheduled = false
	c.sched.Pass(func() {})
	if at := c.sched.Reopens(); at > 0 && (c.reopenAt == 0 || at < c.reopenAt) {
		c.reopenAt = at
		c.eng.CallAt(at, c.reopenFn, 0)
	}
}

// reopen requests a pass for the window opening it was queued for, unless
// an earlier opening superseded it.
func (c *Cluster) reopen(int) {
	if c.eng.Now() == c.reopenAt {
		c.reopenAt = 0
		c.requestSchedule()
	}
}

// libIndex returns a library's position plus one: zero for no library,
// -1 for one the workload does not deploy.
func (c *Cluster) libIndex(name string) int {
	if name == "" {
		return 0
	}
	i := sort.Search(len(c.libs), func(i int) bool { return c.libs[i].Name >= name })
	if i == len(c.libs) || c.libs[i].Name != name {
		return -1
	}
	return i + 1
}

// startTransfer reports false when admission refused the object.
func (c *Cluster) startTransfer(fh replica.FileH, src replica.Source, w *simWorker) bool {
	f := &c.files[fh]
	// An injected disk-full is the worker refusing the object as the
	// instruction arrives, before admission: the transfer starts, moves no
	// bytes and fails a control message later.
	full := c.faults.At(chaos.CacheInsert, w.spec.ID, f.ID).Action != chaos.None
	fault := chaos.Fault{Action: chaos.Fail}
	if !full {
		if !c.admit(w, fh) {
			// The object cannot fit even after eviction; the consumer stays
			// staged and is retried when space frees up.
			return false
		}
		// One fault decision per transfer attempt: Slow stretches the
		// flow's latency, anything else fails the transfer on arrival —
		// modeling a mid-stream reset or corrupted payload detected at the
		// receiver.
		fault = c.faults.At(chaos.Transfer, w.spec.ID, f.ID)
	}
	tr := c.trs.Start(fh, src, w.h)
	c.reps.Add(fh, w.h, replica.Pending)
	label := c.sourceLabel(src)
	c.log.Add(trace.Event{
		Time: c.eng.Now(), Kind: trace.TransferStart, Worker: w.spec.ID,
		File: f.ID, Source: label,
	})
	var from *Endpoint
	latency := c.params.TransferLatency
	if fault.Action == chaos.Slow {
		latency += fault.Delay.Seconds()
	}
	switch {
	case label == "shared-fs":
		from = c.sharedFS
		latency += c.params.SharedFSOpLatency
	case src.Kind == replica.SourceURL:
		from = c.urls
	case src.Kind == replica.SourceManager:
		from = c.manager
	default:
		from = c.worker(src.Worker()).ep
	}
	slot := c.xfers.put(simTransfer{id: tr.ID, fh: fh, w: w, label: label, fault: fault.Action})
	if full {
		c.eng.Call(c.params.ControlLatency, c.transferFn, slot)
	} else {
		c.net.StartFlow(from, w.ep, float64(f.Size), latency, c.transferFn, slot)
	}
	return true
}

// transferDone lands a transfer whose flow completed. A transfer that
// ended while in flight, because its source or its receiver left, lands
// nothing: the engine has already re-planned its fetch. Its flow drew on
// the network until now all the same, as the network cannot cancel one.
func (c *Cluster) transferDone(slot int) {
	x := c.xfers.take(slot)
	fh, w := x.fh, x.w
	f := &c.files[fh]
	if _, ok := c.trs.Complete(x.id); !ok {
		return
	}
	if x.fault != chaos.None && x.fault != chaos.Slow {
		c.reps.Remove(fh, w.h)
		c.log.Add(trace.Event{
			Time: c.eng.Now(), Kind: trace.TransferFailed, Worker: w.spec.ID,
			File: f.ID, Source: x.label, Detail: "chaos: " + x.fault.String(),
		})
		if attempt, wait := c.sched.TransferFailed(fh, w.h); wait > 0 {
			c.log.Add(trace.Event{
				Time: c.eng.Now(), Kind: trace.TransferRetry, Worker: w.spec.ID, File: f.ID,
				Detail: fmt.Sprintf("attempt %d; backoff %v", attempt, wait.Round(time.Millisecond)),
			})
		}
		c.requestSchedule()
		return
	}
	c.store(w, fh, f.Size)
	c.sched.TransferLanded(fh, w.h)
	c.log.Add(trace.Event{
		Time: c.eng.Now(), Kind: trace.TransferEnd, Worker: w.spec.ID,
		File: f.ID, Bytes: f.Size, Source: x.label,
	})
	c.requestSchedule()
}

func (c *Cluster) sourceLabel(src replica.Source) string {
	switch src.Kind {
	case replica.SourceURL:
		if id := c.names.SourceName(src); len(id) > 3 && id[:3] == "fs:" {
			return "shared-fs"
		}
		return "url"
	case replica.SourceManager:
		return "manager"
	default:
		return c.worker(src.Worker()).label
	}
}

// materialize models MiniTask execution at the worker, if a blocked input
// is a MiniTask product to unpack at w now: none exists or is on its way
// anywhere, and its inputs are ready at w. The unpack work is proportional
// to the product size. It reports false when admission refused the
// product.
func (c *Cluster) materialize(fh replica.FileH, w *simWorker) bool {
	f := &c.files[fh]
	if f.File == nil || f.Kind != MiniProduct || c.reps.HasAny(fh, w.h) || c.reps.CountReplicas(fh) > 0 {
		return true
	}
	for _, in := range f.mini {
		if !c.reps.Has(in, w.h) {
			return true
		}
	}
	if !c.admit(w, fh) {
		return false
	}
	c.reps.Add(fh, w.h, replica.Pending)
	c.log.Add(trace.Event{Time: c.eng.Now(), Kind: trace.StageStart, Worker: w.spec.ID, File: f.ID})
	rate := f.UnpackRate
	if rate == 0 {
		rate = c.params.DefaultUnpackRate
	}
	c.eng.Call(float64(f.Size)/rate, c.unpackFn, c.unpacks.put(simUnpack{fh: fh, w: w}))
	return true
}

// unpackDone lands a MiniTask product whose unpack finished.
func (c *Cluster) unpackDone(slot int) {
	u := c.unpacks.take(slot)
	fh, w := u.fh, u.w
	if !w.joined {
		return
	}
	f := &c.files[fh]
	c.store(w, fh, f.Size)
	c.log.Add(trace.Event{
		Time: c.eng.Now(), Kind: trace.StageEnd, Worker: w.spec.ID,
		File: f.ID, Bytes: f.Size,
	})
	c.requestSchedule()
}

func (c *Cluster) startRun(id int, t *simTask, w *simWorker) {
	if c.faults.At(chaos.TaskRun, w.spec.ID, "").Action == chaos.Crash {
		// The node dies at dispatch. The task is still staged on this
		// worker, so workerLeave requeues it along with everything else the
		// node held.
		c.eng.After(0, func() { c.workerLeave(w) })
		return
	}
	c.sched.Run(id, &t.Task)
	t.started = c.eng.Now()
	// All simulated tasks are submitted at virtual time zero, so the start
	// time IS the submit-to-dispatch latency (virtual seconds).
	c.vm.DispatchLatency.Observe(c.eng.Now())
	for _, in := range t.Inputs {
		w.disk.Pin(in, c.eng.Now())
	}
	c.log.Add(trace.Event{
		Time: c.eng.Now(), Kind: trace.TaskStart, Worker: w.spec.ID,
		TaskID: t.t.ID, Detail: t.t.Category,
	})
	c.eng.Call(t.t.Runtime, c.runFn, c.runs.put(taskRun{id: id, epoch: t.epoch, w: w}))
}

// runDone finishes a task whose runtime has passed.
func (c *Cluster) runDone(slot int) {
	r := c.runs.take(slot)
	t := c.tasks[r.id]
	if t.epoch != r.epoch || !r.w.joined {
		return // preempted mid-run; the task was requeued
	}
	c.finishRun(r.id, t, r.w)
}

func (c *Cluster) finishRun(id int, t *simTask, w *simWorker) {
	if t.t.ReturnOutputs && len(t.t.Outputs) > 0 {
		// Shared-storage mode (Figure 13a): results stream back to the
		// manager before the task is considered complete, and live ONLY
		// there afterwards — consumers must fetch them back out, doubling
		// the traffic through the manager's link.
		c.sched.SetState(id, &t.Task, taskspec.StateReturning)
		c.log.Add(trace.Event{
			Time: c.eng.Now(), Kind: trace.TransferStart, Worker: w.spec.ID,
			File: fmt.Sprintf("task-%d-outputs", t.t.ID), Source: w.label,
		})
		slot := c.runs.put(taskRun{id: id, epoch: t.epoch, w: w})
		c.net.StartFlow(w.ep, c.manager, float64(t.t.outputBytes()), c.params.TransferLatency, c.returnFn, slot)
		return
	}
	// In-cluster mode: outputs appear in the worker's cache as temps.
	for i, out := range t.t.Outputs {
		if c.files[t.outputs[i]].File != nil {
			c.admit(w, t.outputs[i])
		}
		c.store(w, t.outputs[i], out.Size)
	}
	c.completeTask(id, t, w)
}

// returnDone completes a task whose outputs reached the manager.
func (c *Cluster) returnDone(slot int) {
	r := c.runs.take(slot)
	t, w := c.tasks[r.id], r.w
	if t.epoch != r.epoch || !w.joined {
		return // preempted while returning outputs
	}
	c.log.Add(trace.Event{
		Time: c.eng.Now(), Kind: trace.TransferEnd, Worker: w.spec.ID,
		File: fmt.Sprintf("task-%d-outputs", t.t.ID), Bytes: t.t.outputBytes(), Source: w.label,
	})
	for _, out := range t.outputs {
		c.files[out].atManager = true
	}
	c.completeTask(r.id, t, w)
}

func (c *Cluster) completeTask(id int, t *simTask, w *simWorker) {
	for _, in := range t.Inputs {
		w.disk.Unpin(in)
	}
	c.sched.SetState(id, &t.Task, taskspec.StateDone)
	c.completed++
	c.dropRunning(w, t)
	w.pool.Release(t.Req)
	c.refresh(w)
	c.log.Add(trace.Event{
		Time: c.eng.Now(), Kind: trace.TaskEnd, Worker: w.spec.ID,
		TaskID: t.t.ID, Detail: t.t.Category,
	})
	c.requestSchedule()
}

// deployLibrary stages the library environment to the worker, boots an
// instance, and marks the worker serverless-ready (§3.4).
func (c *Cluster) deployLibrary(w *simWorker, li int) {
	lib := c.libs[li]
	if w.libReady[li] || w.libBoot[li] {
		return
	}
	cores := lib.Cores
	if cores == 0 {
		cores = 1
	}
	if !w.pool.Alloc(resources.R{Cores: cores}) {
		return
	}
	c.refresh(w)
	w.libBoot[li] = true
	boot := func() {
		c.eng.After(lib.BootTime, func() {
			if !w.joined {
				return
			}
			w.libBoot[li] = false
			w.libReady[li] = true
			c.log.Add(trace.Event{
				Time: c.eng.Now(), Kind: trace.LibraryReady, Worker: w.spec.ID, Detail: lib.Name,
			})
			c.requestSchedule()
		})
	}
	if lib.EnvFile == "" || c.reps.Has(c.internFile(lib.EnvFile), w.h) {
		boot()
		return
	}
	// Stage the environment first: plan it like any other need so the
	// environment rides worker-to-worker distribution.
	c.stageLibraryEnv(w, c.internFile(lib.EnvFile), boot)
}

// stageLibraryEnv repeatedly tries to plan the env transfer until it lands.
func (c *Cluster) stageLibraryEnv(w *simWorker, env replica.FileH, then func()) {
	if c.reps.Has(env, w.h) {
		then()
		return
	}
	c.needsBuf = c.sched.Needs(c.needsBuf[:0], []replica.FileH{env})
	plan := &c.plan
	policy.PlanTransfers(plan, c.needsBuf, w.h, c.limits, c.view)
	for _, tr := range plan.Transfers {
		c.sched.StartTransfer(tr.File, tr.Source, w.h)
	}
	// MiniProduct environments may need materialization.
	for _, blocked := range plan.Blocked {
		c.materialize(blocked, w)
	}
	c.eng.After(0.05, func() { c.stageLibraryEnv(w, env, then) })
}
