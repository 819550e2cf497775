package sim

import (
	"fmt"
	"sort"

	"taskvine/internal/chaos"
	"taskvine/internal/metrics"
	"taskvine/internal/policy"
	"taskvine/internal/replica"
	"taskvine/internal/resources"
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
	// reps and trs wrap the replica and transfer tables so that every
	// mutation wakes the parked tasks that need the file (park.go).
	reps replicaTable
	trs  transferTable

	manager  *Endpoint
	sharedFS *Endpoint
	urls     *Endpoint

	workers map[string]*simWorker
	tasks   map[int]*simTask
	// waiting is the queue of state-0 tasks in dispatch order. A pass
	// compacts it in place over the prefix it scanned.
	waiting []int
	// replan lists the staging tasks the next pass must plan: each task
	// that entered staging or was woken since, and each whose last plan was
	// not parked. It may hold duplicates and tasks that have since parked
	// or left staging; the staging loop skips those. pass is the list the
	// running staging loop walks, passAt its position.
	replan []int
	pass   []int
	passAt int
	inPass bool
	// wakeOn indexes parked tasks by every file their plan consulted,
	// wakeDest by the worker whose destination slot a blocked input waits
	// on, and wakeSrc by the sources whose slots it waits on (park.go).
	wakeOn   map[string][]parkRef
	wakeDest map[string][]parkRef
	wakeSrc  map[replica.Source][]parkRef
	// evictions counts cache evictions, so a staging task can tell whether
	// starting its transfers evicted anything.
	evictions int
	// plans counts progressStaging calls, for tests of the pass cost.
	plans int
	// needsBuf and needsSeen are fileNeedsScratch's reused buffer and
	// dedup set. fixedSrc caches each URL or shared-FS file's fixed
	// source; managerSrc is the one every manager-served need shares (the
	// planner only reads a need's FixedSource).
	needsBuf   []policy.FileNeed
	needsSeen  map[string]bool
	fixedSrc   map[string]*replica.Source
	managerSrc replica.Source
	// stateCount tracks the task population per lifecycle state, maintained
	// by setState, so gauge refreshes cost O(1) instead of O(tasks).
	stateCount [5]int
	// liveSorted caches the joined workers in join order; workersDirty marks
	// it stale after a membership change. liveCount mirrors len(liveSorted).
	liveSorted   []*simWorker
	workersDirty bool
	liveCount    int
	// freeCores is the free cores of the joined workers' pools, kept by
	// every join, leave, Alloc and Release, so a pass need not sum them.
	freeCores int
	// winfoBuf is scratch for workerInfos, reused across calls so the
	// per-task candidate build allocates nothing in steady state.
	winfoBuf []policy.WorkerInfo
	// producers maps produced file ID -> producing task ID, for recovery
	// re-execution when a temp loses its last replica.
	producers map[string]int

	// libraries to deploy per worker.
	libs map[string]*Library

	// atManager records produced objects that were returned to the
	// manager (shared-storage mode): consumers re-fetch them from there.
	atManager map[string]bool

	scheduled bool // a schedule pass is queued
	completed int

	// view is the policy's read-only View over reps and trs; place is the
	// lookahead placement engine, nil unless SetPlacement enabled it.
	view  *policy.View
	place *policy.Lookahead

	// faults is the seeded fault injector; nil disables injection. Because
	// the injector's decisions depend only on its seed and each site's
	// opportunity history, a faulted simulation replays bit-for-bit.
	faults *chaos.Injector
}

type simWorker struct {
	spec      WorkerSpec
	ep        *Endpoint
	pool      *resources.Pool
	cacheUsed int64
	memUsed   int64
	running   map[int]bool
	joinOrder int
	joined    bool
	libReady  map[string]bool
	libBoot   map[string]bool // deploy in progress
	// materializing tracks in-progress MiniTask unpacks.
	materializing map[string]bool
	// cache tracks resident objects for disk accounting and eviction.
	cache map[string]*cachedObject
}

type simTask struct {
	t       *Task
	state   int // 0 waiting, 1 staging, 2 running, 3 returning, 4 done
	worker  string
	started float64
	// epoch increments on every requeue; callbacks from a previous
	// assignment (task-finish timers, return flows) check it and drop.
	epoch int
	// parked marks a staging task whose plan cannot change until one of
	// its files does; parkGen numbers its parkings (park.go).
	parked  bool
	parkGen int
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
		eng:       eng,
		net:       NewNetwork(eng),
		params:    params,
		limits:    limits,
		log:       trace.NewLog(),
		workload:  w,
		manager:   capped(NewEndpoint("manager", params.ManagerBW), params.PerFlowBW),
		urls:      capped(NewEndpoint("url", params.URLBW), params.PerFlowBW),
		sharedFS:  capped(NewEndpoint("shared-fs", params.SharedFSBW), params.PerFlowBW),
		workers:   make(map[string]*simWorker),
		tasks:     make(map[int]*simTask),
		wakeOn:    make(map[string][]parkRef),
		wakeDest:  make(map[string][]parkRef),
		wakeSrc:   make(map[replica.Source][]parkRef),
		needsSeen: make(map[string]bool),
		fixedSrc:  make(map[string]*replica.Source),
		producers: make(map[string]int),
		libs:      make(map[string]*Library),
		atManager: make(map[string]bool),
	}
	c.managerSrc = replica.Source{Kind: replica.SourceManager, ID: "manager"}
	c.reps = replicaTable{replica.NewTable(), c}
	c.trs = transferTable{replica.NewTransfers(), c}
	c.view = &policy.View{Reps: c.reps.Table, Trs: c.trs.Transfers}
	c.reg = metrics.NewRegistry()
	c.vm = metrics.ForRegistry(c.reg)
	metrics.BridgeTrace(c.log, c.vm)
	for _, lib := range w.Libraries {
		c.libs[lib.Name] = lib
	}
	for i, ws := range w.Workers {
		bw := ws.BW
		if bw == 0 {
			bw = params.WorkerBW
		}
		sw := &simWorker{
			spec:          ws,
			ep:            NewEndpoint(ws.ID, bw),
			pool:          resources.NewPool(resources.R{Cores: ws.Cores, Disk: ws.Disk, Memory: resources.TB}),
			running:       make(map[int]bool),
			joinOrder:     i,
			libReady:      make(map[string]bool),
			libBoot:       make(map[string]bool),
			materializing: make(map[string]bool),
		}
		sw.ep.OverheadPerFlow = params.OverheadPerFlow
		sw.ep.PerFlowBW = params.PerFlowBW
		if params.WorkerUpBW > 0 {
			sw.ep.UpBW = params.WorkerUpBW
		}
		c.workers[ws.ID] = sw
		join := ws.JoinTime
		eng.At(join, func() { c.workerJoin(sw) })
		if ws.LeaveTime > 0 {
			eng.At(ws.LeaveTime, func() { c.workerLeave(sw) })
		}
	}
	for _, t := range w.Tasks {
		c.tasks[t.ID] = &simTask{t: t}
		c.waiting = append(c.waiting, t.ID)
		c.stateCount[0]++
		c.vm.TasksSubmitted.Inc()
		for _, out := range t.Outputs {
			c.producers[out.ID] = t.ID
		}
	}
	sort.Ints(c.waiting)
	return c
}

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
	span := c.eng.Run(0)
	// The workflow has ended: a placement still unresolved was moved for
	// nothing.
	c.place.Flush()
	return span
}

func (c *Cluster) workerJoin(w *simWorker) {
	w.joined = true
	c.liveCount++
	c.freeCores += w.pool.Free().Cores
	c.workersDirty = true
	c.log.Add(trace.Event{Time: c.eng.Now(), Kind: trace.WorkerJoined, Worker: w.spec.ID})
	for _, fid := range w.spec.Prestaged {
		f := c.workload.Files[fid]
		if f == nil {
			panic(fmt.Sprintf("sim: prestaged unknown file %s", fid))
		}
		c.store(w, fid, f.Size)
	}
	// Deploy in name order: deployLibrary consumes cores, so the order in
	// which libraries land must not depend on map iteration.
	names := make([]string, 0, len(c.libs))
	for name := range c.libs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c.deployLibrary(w, c.libs[name])
	}
	c.requestSchedule()
}

// workerLeave preempts a worker: every replica it held is dropped, its
// running tasks return to the waiting queue, and transfers touching it are
// cancelled (§2.2: workers may join and leave dynamically).
func (c *Cluster) workerLeave(w *simWorker) {
	if !w.joined {
		return
	}
	w.joined = false
	c.liveCount--
	c.freeCores -= w.pool.Free().Cores
	c.workersDirty = true
	c.log.Add(trace.Event{Time: c.eng.Now(), Kind: trace.WorkerLeft, Worker: w.spec.ID})
	c.place.DropWorker(w.spec.ID)
	affected := c.reps.DropWorker(w.spec.ID)
	for _, tr := range c.trs.DropWorker(w.spec.ID) {
		if tr.Dest != w.spec.ID {
			c.reps.Remove(tr.File, tr.Dest)
		}
	}
	c.recoverLostTemps(w.spec.ID, affected)
	running := make([]int, 0, len(w.running))
	for id := range w.running { // hotpath-ok: bounded by one worker's running tasks
		running = append(running, id)
	}
	sort.Ints(running)
	for _, id := range running {
		t := c.tasks[id]
		if t == nil {
			continue
		}
		delete(w.running, id)
		if t.state == 1 || t.state == 2 || t.state == 3 {
			c.setState(id, t, 0)
			t.worker = ""
			t.epoch++
			c.waiting = append(c.waiting, id)
			c.vm.TasksRequeued.Inc()
		}
	}
	// Reset the pool and cache: the node is gone.
	w.pool = resources.NewPool(resources.R{Cores: w.spec.Cores, Disk: w.spec.Disk, Memory: resources.TB})
	w.cacheUsed = 0
	c.vm.CacheMemUsedBytes.Add(-float64(w.memUsed))
	w.memUsed = 0
	w.cache = nil
	w.materializing = make(map[string]bool)
	w.libReady = make(map[string]bool)
	w.libBoot = make(map[string]bool)
	sort.Ints(c.waiting)
	c.requestSchedule()
}

// recoverLostTemps mirrors the real manager's recovery re-execution: a
// produced file whose last replica left with a worker is regenerated by
// requeueing its completed producer, provided some unfinished task still
// consumes it (§2.2). The producer's completion counter entry is returned
// so re-completion does not double-count.
func (c *Cluster) recoverLostTemps(workerID string, affected []string) {
	sort.Strings(affected)
	requeued := false
	for _, fid := range affected {
		f := c.workload.Files[fid]
		if f == nil || f.Kind != Produced || c.atManager[fid] || c.reps.CountReplicas(fid) > 0 {
			continue
		}
		prodID, ok := c.producers[fid]
		if !ok {
			continue
		}
		p := c.tasks[prodID]
		if p == nil || p.state != 4 || !c.tempNeeded(fid) {
			continue
		}
		c.log.Add(trace.Event{
			Time: c.eng.Now(), Kind: trace.RecoveryStart, Worker: workerID,
			File: fid, TaskID: prodID, Detail: "temp lost with worker; re-executing producer",
		})
		c.setState(prodID, p, 0)
		p.worker = ""
		p.epoch++
		c.completed--
		c.waiting = append(c.waiting, prodID)
		c.vm.TasksRequeued.Inc()
		requeued = true
	}
	if requeued {
		sort.Ints(c.waiting)
	}
}

// tempNeeded reports whether any unfinished task consumes the file.
func (c *Cluster) tempNeeded(fid string) bool {
	for _, t := range c.tasks { // hotpath-ok: runs only on worker loss with lost temp replicas
		if t.state == 4 {
			continue
		}
		for _, in := range t.t.Inputs {
			if in == fid {
				return true
			}
		}
	}
	return false
}

// setState moves a task to a new lifecycle state, maintaining the per-state
// counters behind updateGauges and the replan list behind schedule. Every
// transition in the simulator goes through here.
func (c *Cluster) setState(id int, t *simTask, s int) {
	if t.state == s {
		return
	}
	old := t.state
	// Leaving or entering staging ends any parking: its references go stale.
	t.parked = false
	c.stateCount[old]--
	t.state = s
	c.stateCount[s]++
	if s == 1 {
		c.replan = append(c.replan, id)
	}
	// Waiting and staging tasks are the lookahead's consumers, as they are
	// the fileWaiters index in core.
	if c.place != nil && (old <= 1) != (s <= 1) {
		delta := 1
		if s > 1 {
			delta = -1
		}
		c.consume(t, delta)
	}
}

// liveWorkerList returns the joined workers in join order. The slice is
// cached and rebuilt only after a membership change, so per-pass and
// per-task consumers stop re-sorting the whole worker map.
func (c *Cluster) liveWorkerList() []*simWorker {
	if c.workersDirty {
		c.liveSorted = c.liveSorted[:0]
		for _, w := range c.workers { // hotpath-ok: rebuilt only on membership change
			if w.joined {
				c.liveSorted = append(c.liveSorted, w)
			}
		}
		sort.Slice(c.liveSorted, func(i, j int) bool { // hotpath-ok: rebuilt only on membership change
			return c.liveSorted[i].joinOrder < c.liveSorted[j].joinOrder
		})
		c.workersDirty = false
	}
	return c.liveSorted
}

// requestSchedule coalesces schedule passes: at most one pending pass,
// ControlLatency after the triggering event.
func (c *Cluster) requestSchedule() {
	if c.scheduled {
		return
	}
	c.scheduled = true
	c.eng.After(c.params.ControlLatency, func() {
		c.scheduled = false
		c.schedule()
	})
}

// updateGauges refreshes the instantaneous instruments after a pass,
// mirroring the real manager's set. Simulator task states map onto the
// manager's lifecycle names; "returning" output streams still occupy their
// worker, so they count as running.
func (c *Cluster) updateGauges() {
	c.vm.TasksByState.With("waiting").Set(float64(c.stateCount[0]))
	c.vm.TasksByState.With("staging").Set(float64(c.stateCount[1]))
	c.vm.TasksByState.With("running").Set(float64(c.stateCount[2] + c.stateCount[3]))
	c.vm.TasksByState.With("done").Set(float64(c.stateCount[4]))
	c.vm.WorkersConnected.Set(float64(c.liveCount))
	c.vm.TransfersInflight.Set(float64(c.trs.Len()))
}

func (c *Cluster) schedule() {
	c.vm.SchedulePasses.Inc()
	defer c.updateGauges()
	// Deferred after updateGauges so it runs first (LIFO): placement plans
	// strictly after assignment and dispatch, even when the pass bails out
	// early below with no free cores.
	defer c.placeLookahead()
	// Progress staging tasks first (mirrors internal/core.schedule), all
	// but the parked ones, whose plans cannot have changed.
	c.progressAllStaging()
	// Skip the waiting scan entirely when no worker has a free core: with
	// thousands of queued tasks this dominates simulation cost otherwise.
	freeCores := c.freeCores
	if freeCores == 0 {
		return
	}
	// Tasks that stay queued are packed to the front of the scanned prefix,
	// in order, so the pass costs what it scanned and allocates nothing.
	kept := 0
	for i, id := range c.waiting {
		if freeCores <= 0 {
			// Every request is floored at one core, so nothing further can
			// assign this pass. Slide the kept entries up against the
			// untouched tail rather than moving the tail down.
			copy(c.waiting[i-kept:i], c.waiting[:kept])
			c.waiting = c.waiting[i-kept:]
			return
		}
		t := c.tasks[id]
		if t.state != 0 || !c.tryAssign(id, t) {
			c.waiting[kept] = id
			kept++
			continue
		}
		cores := t.t.Cores
		if cores == 0 {
			cores = 1
		}
		freeCores -= cores
	}
	c.waiting = c.waiting[:kept]
}

// workerInfos snapshots the live workers, only those with needLib ready
// when it is set. The cached live list is already in join order, so the
// snapshot comes out sorted without a per-task sort. The scratch buffer is
// refilled every call because Free and RunningTasks change within a single
// pass.
func (c *Cluster) workerInfos(needLib string) []policy.WorkerInfo {
	out := c.winfoBuf[:0]
	for _, w := range c.liveWorkerList() {
		if needLib != "" && !w.libReady[needLib] {
			continue
		}
		out = append(out, policy.WorkerInfo{
			ID:           w.spec.ID,
			Free:         w.pool.Free(),
			RunningTasks: len(w.running),
			JoinOrder:    w.joinOrder,
		})
	}
	c.winfoBuf = out
	return out
}

// fileNeedsScratch is fileNeedsInto appending into a cluster-owned buffer:
// the result is valid only until the next fileNeedsScratch call. Dispatch
// (tryAssign, progressStaging, stageLibraryEnv) finishes with each slice
// before calling back in.
func (c *Cluster) fileNeedsScratch(inputs []string) []policy.FileNeed {
	c.needsBuf = c.fileNeedsInto(c.needsBuf[:0], inputs)
	return c.needsBuf
}

// fileNeedsInto mirrors core.fileNeeds: fixed sources per kind, recursive
// expansion of unmaterialized MiniTask inputs.
func (c *Cluster) fileNeedsInto(needs []policy.FileNeed, inputs []string) []policy.FileNeed {
	clear(c.needsSeen)
	for _, in := range inputs {
		needs = c.addNeed(needs, in)
	}
	return needs
}

func (c *Cluster) addNeed(needs []policy.FileNeed, id string) []policy.FileNeed {
	if c.needsSeen[id] {
		return needs
	}
	c.needsSeen[id] = true
	f := c.workload.Files[id]
	if f == nil {
		panic(fmt.Sprintf("sim: task references unknown file %s", id))
	}
	n := policy.FileNeed{ID: id, Size: f.Size}
	switch f.Kind {
	case FromURL, FromSharedFS, FromManager:
		n.FixedSource = c.fixedSource(f)
	case MiniProduct:
		if c.reps.CountReplicas(id) == 0 {
			for _, in := range f.MiniInputs {
				needs = c.addNeed(needs, in)
			}
		}
	case Produced:
		// Worker replicas only — unless the object was returned to
		// the manager (shared-storage mode), which then serves as its
		// fixed source for consumers.
		if c.atManager[id] {
			n.FixedSource = &c.managerSrc
		}
	}
	return append(needs, n)
}

// fixedSource returns the file's fixed source, built once per cluster.
func (c *Cluster) fixedSource(f *File) *replica.Source {
	if f.Kind == FromManager {
		return &c.managerSrc
	}
	if src := c.fixedSrc[f.ID]; src != nil {
		return src
	}
	src := &replica.Source{Kind: replica.SourceURL, ID: "url:" + f.SourcePath}
	if f.Kind == FromSharedFS {
		src.ID = "fs:" + f.SourcePath
	}
	c.fixedSrc[f.ID] = src
	return src
}

// depsSatisfiable: temp inputs must exist somewhere (or be in flight).
func (c *Cluster) depsSatisfiable(t *simTask) bool {
	for _, in := range t.t.Inputs {
		f := c.workload.Files[in]
		if f != nil && f.Kind == Produced && c.reps.CountReplicas(in) == 0 && !c.atManager[in] {
			return false
		}
	}
	return true
}

func (c *Cluster) tryAssign(id int, t *simTask) bool {
	if !c.depsSatisfiable(t) {
		return false
	}
	cands := c.workerInfos(t.t.Library)
	if len(cands) == 0 {
		return false
	}
	needs := c.fileNeedsScratch(t.t.Inputs)
	if c.params.IgnoreLocality {
		// Placement ablation: choose a worker as if nothing were cached.
		needs = nil
	}
	req := resources.R{Cores: t.t.Cores}
	if req.Cores == 0 {
		req.Cores = 1
	}
	chosen, ok := c.place.Pick(needs, req, cands, c.view)
	if !ok {
		return false
	}
	w := c.workers[chosen.ID]
	if !w.pool.Alloc(req) {
		return false
	}
	c.freeCores -= req.Cores
	t.worker = w.spec.ID
	c.setState(id, t, 1)
	w.running[id] = true
	c.progressStaging(id, t)
	return true
}

func (c *Cluster) progressStaging(id int, t *simTask) {
	c.plans++
	w := c.workers[t.worker]
	needs := c.fileNeedsScratch(t.t.Inputs)
	plan := policy.PlanTransfers(needs, w.spec.ID, c.limits, c.view)
	// Once its plan has started, a task that cannot run parks (park.go),
	// unless an admission on the way refused or evicted anything.
	settled, evictions := true, c.evictions
	for _, tr := range plan.Transfers {
		settled = c.startTransfer(tr.File, tr.Source, w, "") && settled
	}
	for _, blockedID := range plan.Blocked {
		f := c.workload.Files[blockedID]
		if f == nil || f.Kind != MiniProduct {
			continue
		}
		if c.reps.HasAny(blockedID, w.spec.ID) || w.materializing[blockedID] {
			continue
		}
		if c.reps.CountReplicas(blockedID) > 0 {
			continue
		}
		ready := true
		for _, in := range f.MiniInputs {
			if !c.reps.Has(in, w.spec.ID) {
				ready = false
				break
			}
		}
		if ready {
			settled = c.materialize(f, w) && settled
		}
	}
	for _, in := range t.t.Inputs {
		if !c.reps.Has(in, w.spec.ID) {
			if settled && c.evictions == evictions {
				c.park(id, t, w.spec.ID, needs, plan.Blocked)
			}
			return
		}
	}
	c.startRun(id, t, w)
}

// startTransfer reports false when admission refused the object.
func (c *Cluster) startTransfer(fileID string, src replica.Source, w *simWorker, detail string) bool {
	f := c.workload.Files[fileID]
	if !c.admit(w, f) {
		// The object cannot fit even after eviction; the consumer stays
		// staged and is retried when space frees up.
		return false
	}
	// One fault decision per transfer attempt: Slow stretches the flow's
	// latency, anything else fails the transfer on arrival — modeling a
	// mid-stream reset or corrupted payload detected at the receiver.
	fault := c.faults.At(chaos.Transfer, w.spec.ID, fileID)
	tr := c.trs.Start(fileID, src, w.spec.ID)
	c.reps.Add(fileID, w.spec.ID, replica.Pending)
	c.log.Add(trace.Event{
		Time: c.eng.Now(), Kind: trace.TransferStart, Worker: w.spec.ID,
		File: fileID, Source: c.sourceLabel(src), Detail: detail,
	})
	var from *Endpoint
	latency := c.params.TransferLatency
	if fault.Action == chaos.Slow {
		latency += fault.Delay.Seconds()
	}
	switch src.Kind {
	case replica.SourceURL:
		if len(src.ID) > 3 && src.ID[:3] == "fs:" {
			from = c.sharedFS
			latency += c.params.SharedFSOpLatency
		} else {
			from = c.urls
		}
	case replica.SourceManager:
		from = c.manager
	case replica.SourceWorker:
		from = c.workers[src.ID].ep
	}
	srcCopy := src
	c.net.StartFlow(from, w.ep, float64(f.Size), latency, func() {
		c.trs.Complete(tr.ID)
		if !w.joined {
			return // worker preempted while the transfer was in flight
		}
		if fault.Action != chaos.None && fault.Action != chaos.Slow {
			c.place.Failed(fileID, w.spec.ID)
			c.reps.Remove(fileID, w.spec.ID)
			c.log.Add(trace.Event{
				Time: c.eng.Now(), Kind: trace.TransferFailed, Worker: w.spec.ID,
				File: fileID, Source: c.sourceLabel(srcCopy), Detail: "chaos: " + fault.Action.String(),
			})
			c.requestSchedule()
			return
		}
		c.store(w, fileID, f.Size)
		c.log.Add(trace.Event{
			Time: c.eng.Now(), Kind: trace.TransferEnd, Worker: w.spec.ID,
			File: fileID, Bytes: f.Size, Source: c.sourceLabel(srcCopy),
		})
		c.requestSchedule()
	})
	return true
}

func (c *Cluster) sourceLabel(src replica.Source) string {
	switch src.Kind {
	case replica.SourceURL:
		if len(src.ID) > 3 && src.ID[:3] == "fs:" {
			return "shared-fs"
		}
		return "url"
	case replica.SourceManager:
		return "manager"
	default:
		return "worker:" + src.ID
	}
}

// materialize models MiniTask execution at the worker: unpack work
// proportional to the product size. It reports false when admission
// refused the product.
func (c *Cluster) materialize(f *File, w *simWorker) bool {
	if !c.admit(w, f) {
		return false
	}
	for _, in := range f.MiniInputs {
		c.place.Use(in, w.spec.ID)
	}
	w.materializing[f.ID] = true
	c.reps.Add(f.ID, w.spec.ID, replica.Pending)
	c.log.Add(trace.Event{Time: c.eng.Now(), Kind: trace.StageStart, Worker: w.spec.ID, File: f.ID})
	rate := f.UnpackRate
	if rate == 0 {
		rate = c.params.DefaultUnpackRate
	}
	c.eng.After(float64(f.Size)/rate, func() {
		delete(w.materializing, f.ID)
		if !w.joined {
			return
		}
		c.store(w, f.ID, f.Size)
		c.log.Add(trace.Event{
			Time: c.eng.Now(), Kind: trace.StageEnd, Worker: w.spec.ID,
			File: f.ID, Bytes: f.Size,
		})
		c.requestSchedule()
	})
	return true
}

func (c *Cluster) startRun(id int, t *simTask, w *simWorker) {
	if c.faults.At(chaos.TaskRun, w.spec.ID, "").Action == chaos.Crash {
		// The node dies at dispatch. The task is still staged on this
		// worker, so workerLeave requeues it along with everything else the
		// node held.
		c.eng.After(0, func() { c.workerLeave(w) })
		return
	}
	for _, in := range t.t.Inputs {
		c.place.Use(in, w.spec.ID)
	}
	c.setState(id, t, 2)
	t.started = c.eng.Now()
	// All simulated tasks are submitted at virtual time zero, so the start
	// time IS the submit-to-dispatch latency (virtual seconds).
	c.vm.DispatchLatency.Observe(c.eng.Now())
	c.pin(w, t.t.Inputs)
	c.log.Add(trace.Event{
		Time: c.eng.Now(), Kind: trace.TaskStart, Worker: w.spec.ID,
		TaskID: id, Detail: t.t.Category,
	})
	epoch := t.epoch
	c.eng.After(t.t.Runtime, func() {
		if t.epoch != epoch || !w.joined {
			return // preempted mid-run; the task was requeued
		}
		c.finishRun(id, t, w)
	})
}

func (c *Cluster) finishRun(id int, t *simTask, w *simWorker) {
	if t.t.ReturnOutputs && len(t.t.Outputs) > 0 {
		// Shared-storage mode (Figure 13a): results stream back to the
		// manager before the task is considered complete, and live ONLY
		// there afterwards — consumers must fetch them back out, doubling
		// the traffic through the manager's link.
		c.setState(id, t, 3)
		var total int64
		for _, out := range t.t.Outputs {
			total += out.Size
		}
		c.log.Add(trace.Event{
			Time: c.eng.Now(), Kind: trace.TransferStart, Worker: w.spec.ID,
			File: fmt.Sprintf("task-%d-outputs", id), Source: "worker:" + w.spec.ID,
		})
		epoch := t.epoch
		c.net.StartFlow(w.ep, c.manager, float64(total), c.params.TransferLatency, func() {
			if t.epoch != epoch || !w.joined {
				return // preempted while returning outputs
			}
			c.log.Add(trace.Event{
				Time: c.eng.Now(), Kind: trace.TransferEnd, Worker: w.spec.ID,
				File: fmt.Sprintf("task-%d-outputs", id), Bytes: total, Source: "worker:" + w.spec.ID,
			})
			for _, out := range t.t.Outputs {
				c.atManager[out.ID] = true
			}
			c.completeTask(id, t, w)
		})
		return
	}
	// In-cluster mode: outputs appear in the worker's cache as temps.
	for _, out := range t.t.Outputs {
		c.storeOutput(w, out.ID, out.Size)
	}
	c.completeTask(id, t, w)
}

func (c *Cluster) completeTask(id int, t *simTask, w *simWorker) {
	c.unpin(w, t.t.Inputs)
	c.setState(id, t, 4)
	c.completed++
	delete(w.running, id)
	req := resources.R{Cores: t.t.Cores}
	if req.Cores == 0 {
		req.Cores = 1
	}
	w.pool.Release(req)
	c.freeCores += req.Cores
	c.log.Add(trace.Event{
		Time: c.eng.Now(), Kind: trace.TaskEnd, Worker: w.spec.ID,
		TaskID: id, Detail: t.t.Category,
	})
	c.requestSchedule()
}

// deployLibrary stages the library environment to the worker, boots an
// instance, and marks the worker serverless-ready (§3.4).
func (c *Cluster) deployLibrary(w *simWorker, lib *Library) {
	if w.libReady[lib.Name] || w.libBoot[lib.Name] {
		return
	}
	cores := lib.Cores
	if cores == 0 {
		cores = 1
	}
	if !w.pool.Alloc(resources.R{Cores: cores}) {
		return
	}
	c.freeCores -= cores
	w.libBoot[lib.Name] = true
	boot := func() {
		c.eng.After(lib.BootTime, func() {
			if !w.joined {
				return
			}
			delete(w.libBoot, lib.Name)
			w.libReady[lib.Name] = true
			c.log.Add(trace.Event{
				Time: c.eng.Now(), Kind: trace.LibraryReady, Worker: w.spec.ID, Detail: lib.Name,
			})
			c.requestSchedule()
		})
	}
	if lib.EnvFile == "" || c.reps.Has(lib.EnvFile, w.spec.ID) {
		boot()
		return
	}
	// Stage the environment first: plan it like any other need so the
	// environment rides worker-to-worker distribution.
	c.stageLibraryEnv(w, lib, boot)
}

// stageLibraryEnv repeatedly tries to plan the env transfer until it lands.
func (c *Cluster) stageLibraryEnv(w *simWorker, lib *Library, then func()) {
	if c.reps.Has(lib.EnvFile, w.spec.ID) {
		then()
		return
	}
	needs := c.fileNeedsScratch([]string{lib.EnvFile})
	plan := policy.PlanTransfers(needs, w.spec.ID, c.limits, c.view)
	for _, tr := range plan.Transfers {
		c.startTransfer(tr.File, tr.Source, w, "")
	}
	// MiniProduct environments may need materialization.
	for _, blockedID := range plan.Blocked {
		f := c.workload.Files[blockedID]
		if f != nil && f.Kind == MiniProduct && !w.materializing[blockedID] &&
			!c.reps.HasAny(blockedID, w.spec.ID) && c.reps.CountReplicas(blockedID) == 0 {
			ready := true
			for _, in := range f.MiniInputs {
				if !c.reps.Has(in, w.spec.ID) {
					ready = false
					break
				}
			}
			if ready {
				c.materialize(f, w)
			}
		}
	}
	c.eng.After(0.05, func() { c.stageLibraryEnv(w, lib, then) })
}
