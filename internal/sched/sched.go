// Package sched is the one scheduling engine of the manager and the
// simulator: the task lifecycle and the scheduling pass that replicates and
// places data first, then schedules tasks within the constraints of
// available data (§2.1). It owns the task states and their one
// legal-transition table, the per-state counts, the ID-ordered waiting
// queue, the staging replan list with its parking and wake lists, the
// live workers' policy view, and failure handling (failure.go): transfer
// retry with backoff, worker loss and re-execution of lost temps.
//
// What differs between a real cluster and a simulated one sits behind
// Substrate: internal/core supplies sockets and wall time; internal/sim
// supplies the event heap, the virtual clock, the fluid network and worker
// storage. Both substrates therefore make the same decision, and recover
// from the same failure, from the same state by construction.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"taskvine/internal/intern"
	"taskvine/internal/metrics"
	"taskvine/internal/policy"
	"taskvine/internal/replica"
	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
)

// Task is one task's scheduling record. A substrate embeds it in its own
// task type and hands it out by ID through Substrate.Task, so the engine
// keeps no per-task storage of its own.
type Task struct {
	State taskspec.State
	// Worker is the worker a staging or running task is assigned to, zero
	// otherwise.
	Worker replica.WorkerH
	// Req is the allocation the task asks for; its cores drive the
	// queue's free-core cutoff.
	Req resources.R
	// Inputs are the task's direct inputs.
	Inputs []replica.FileH
	// parked marks a staging task whose plan cannot change until one of
	// its files or slots does; parkGen numbers its parkings (park.go).
	parked  bool
	parkGen int
}

// Substrate is what a cluster supplies to the engine. Task IDs order like
// submission: the queue and the staging loop run in ID order.
type Substrate interface {
	// Task returns the record of task id, or nil for a task the substrate
	// no longer holds.
	Task(id int) *Task
	// File describes file f to needs expansion: its need, with the fixed
	// source it can come from, and for a MiniTask product the product's
	// inputs (non-nil) while no replica of it exists. ok is false for a
	// file the substrate does not know.
	File(f replica.FileH) (n policy.FileNeed, mini []replica.FileH, ok bool)
	// Producer returns the task that produces f, with its record, or a nil
	// record for a file no task produces; keep reports that f must exist
	// whether or not a task still reads it (a replica goal).
	Producer(f replica.FileH) (id int, t *Task, keep bool)
	// Candidates returns the live workers that can run task id, in join
	// order.
	Candidates(id int) []policy.WorkerInfo
	// Alloc reserves task id's request at worker w.
	Alloc(id int, w replica.WorkerH) bool
	// OnWorker appends to buf the IDs of the tasks assigned to worker w,
	// in any order.
	OnWorker(buf []int, w replica.WorkerH) []int
	// StartTransfer starts moving f from src to dest. It reports false
	// when the transfer was refused or failed to start in a way that no
	// table mutation will signal, so the plan must be retried.
	StartTransfer(f replica.FileH, src replica.Source, dest replica.WorkerH) (settled bool)
	// Materialize unpacks a blocked MiniTask product f at dest if its
	// inputs are there and no replica exists anywhere; settled as for
	// StartTransfer.
	Materialize(f replica.FileH, dest replica.WorkerH) (settled bool)
	// Dispatch starts task id, whose inputs are all at w. It calls Run
	// unless the task cannot start after all.
	Dispatch(id int, w replica.WorkerH)
	// Requeue settles the substrate's own records of task id and returns
	// it to the queue through Engine.Requeue, or drops or fails a task it
	// will not run again (a library instance, a cancelled task). The
	// engine calls it for the tasks of a lost worker, for the staging
	// tasks of an abandoned placement and, with lost set to the temp, for
	// the done producer of a lost temp; from is the worker the temp was
	// lost with, zero when a waiting consumer found it lost.
	Requeue(id int, lost replica.FileH, from replica.WorkerH)
	// Now returns the substrate's clock in seconds: wall time in a real
	// cluster, virtual time in a simulated one.
	Now() float64
}

// legal lists, by state, the states a task may move to.
var legal = [...]uint8{
	// Submit; a library deployment starts running.
	taskspec.StateDeclared: 1<<taskspec.StateWaiting | 1<<taskspec.StateRunning,
	// Assign; a direct-routed invoke; cancel.
	taskspec.StateWaiting: 1<<taskspec.StateStaging | 1<<taskspec.StateRunning | 1<<taskspec.StateFailed,
	// Dispatch; requeue; cancel.
	taskspec.StateStaging: 1<<taskspec.StateRunning | 1<<taskspec.StateWaiting | 1<<taskspec.StateFailed,
	// Requeue; output return; completion; failure.
	taskspec.StateRunning: 1<<taskspec.StateWaiting | 1<<taskspec.StateReturning |
		1<<taskspec.StateDone | 1<<taskspec.StateFailed,
	taskspec.StateReturning: 1<<taskspec.StateWaiting | 1<<taskspec.StateDone,
	// Lost-temp recovery re-executes a done producer.
	taskspec.StateDone:   1 << taskspec.StateWaiting,
	taskspec.StateFailed: 0,
}

// Engine runs the scheduling pass over one substrate.
type Engine struct {
	sub    Substrate
	view   *policy.View
	limits policy.Limits
	vm     *metrics.VineMetrics
	// IgnoreLocality picks workers as if nothing were cached (an ablation).
	IgnoreLocality bool
	// Plans counts staging plans, for tests of the pass cost.
	Plans int

	counts   [taskspec.StateReturning + 1]int
	zeroCore int // waiting tasks requesting no cores
	// waiting is the queue of waiting task IDs, sorted unless unsorted is
	// set. A walk compacts it in place over the prefix it scanned; tasks
	// queued during the walk wait in late.
	waiting  []int
	late     []int
	unsorted bool
	walking  bool
	// dirty records a queued task or a table mutation since the last pass.
	dirty bool
	// replan, pass, passAt and inPass are the staging loop's lists; files,
	// workers and onFixed hold, by handle, the tasks parked on each file,
	// worker slot and fixed-source slot (park.go).
	replan  []int
	pass    []int
	passAt  int
	inPass  bool
	files   []fileState
	workers []workerState
	onFixed [][]parkRef
	// spare holds emptied park lists' backing arrays for reuse (park.go).
	spare   [][]parkRef
	plan    policy.Plan
	holders []replica.WorkerH
	// needBuf is the staging path's needs scratch; needGen stamps the files
	// one expansion has visited.
	needBuf []policy.FileNeed
	needGen uint32
	libBuf  []policy.WorkerInfo
	// live is the policy's view of the live workers in join order, kept in
	// place by Join, WorkerLost and Refresh; freeCores sums their free cores.
	live      []policy.WorkerInfo
	freeCores int
	gauges    [taskspec.StateReturning]*metrics.Gauge
	// retries is the transfer retry table; reopen is Reopens' result and
	// ids a scratch list of task IDs (failure.go).
	retries map[Placement]Retry
	reopen  float64
	ids     []int
}

// fileState is the engine's state of one file: the needs expansion that
// last visited it and the tasks parked on it.
type fileState struct {
	seen   uint32
	parked []parkRef
}

// workerState is the engine's state of one worker: its position in the
// live view plus one, and the tasks parked on its destination and source
// slots.
type workerState struct {
	livePos       int
	onDest, onSrc []parkRef
}

// New returns an engine over sub, reading the cluster through view, whose
// tables it hooks. Its per-file and per-worker state starts sized to the
// names view has interned, and grows as more are.
func New(sub Substrate, view *policy.View, limits policy.Limits, vm *metrics.VineMetrics) *Engine {
	names := view.Reps.Names()
	e := &Engine{
		sub: sub, view: view, limits: limits, vm: vm,
		files:   make([]fileState, names.Files.Len()),
		workers: make([]workerState, names.Workers.Len()),
		retries: map[Placement]Retry{},
	}
	for s := range e.gauges {
		e.gauges[s] = vm.TasksByState.With(taskspec.State(s).String())
	}
	view.Reps.Changed, view.Trs.Changed = e.fileChanged, e.transferChanged
	return e
}

// file and worker return the engine's state of a file or a worker.
func (e *Engine) file(f replica.FileH) *fileState {
	if int(f) >= len(e.files) {
		e.files = intern.Grow(e.files, f)
	}
	return &e.files[f]
}

func (e *Engine) worker(w replica.WorkerH) *workerState {
	if int(w) >= len(e.workers) {
		e.workers = intern.Grow(e.workers, w)
	}
	return &e.workers[w]
}

// SetState moves a task to state s, keeping the counts and the replan list
// exact. Every transition goes through here; one the table does not list
// panics.
func (e *Engine) SetState(id int, t *Task, s taskspec.State) {
	old := t.State
	if old == s {
		return
	}
	if int(old) >= len(legal) || legal[old]&(1<<s) == 0 {
		panic(fmt.Sprintf("sched: task %d: illegal transition %v -> %v", id, old, s))
	}
	// Leaving or entering staging ends any parking: its references go stale.
	t.parked = false
	e.count(t, -1)
	t.State = s
	e.count(t, 1)
	if s == taskspec.StateStaging {
		e.replan = append(e.replan, id)
	}
}

// count moves a task in or out of its state's count; a declared task is
// not yet counted.
func (e *Engine) count(t *Task, delta int) {
	if t.State == taskspec.StateDeclared {
		return
	}
	e.counts[t.State] += delta
	if t.State == taskspec.StateWaiting && t.Req.Cores == 0 {
		e.zeroCore += delta
	}
}

// Count returns how many tasks are in state s.
func (e *Engine) Count(s taskspec.State) int { return e.counts[s] }

// Submit moves a new task into the queue.
func (e *Engine) Submit(id int, t *Task) {
	e.SetState(id, t, taskspec.StateWaiting)
	e.enqueue(id)
}

// Requeue returns a task to the queue, unassigned.
func (e *Engine) Requeue(id int, t *Task) {
	t.Worker = 0
	e.Submit(id, t)
	e.vm.TasksRequeued.Inc()
}

// Forget drops a task from the counts, as if it had never been submitted.
func (e *Engine) Forget(t *Task) { e.count(t, -1) }

// Run marks a staged task running at its worker.
func (e *Engine) Run(id int, t *Task) { e.SetState(id, t, taskspec.StateRunning) }

func (e *Engine) enqueue(id int) {
	e.dirty = true
	if e.walking {
		e.late = append(e.late, id)
		return
	}
	if n := len(e.waiting); n > 0 && e.waiting[n-1] > id {
		e.unsorted = true
	}
	e.waiting = append(e.waiting, id)
}

// Pass runs one scheduling pass: replan the staging tasks, call between,
// then walk the queue assigning tasks until no core is free.
func (e *Engine) Pass(between func()) {
	e.vm.SchedulePasses.Inc()
	e.dirty, e.reopen = false, 0
	e.stage()
	between()
	e.assign()
	for s, g := range e.gauges {
		n := e.counts[s]
		if s == int(taskspec.StateRunning) {
			n += e.counts[taskspec.StateReturning] // still occupying their worker
		}
		g.Set(float64(n))
	}
	e.vm.WorkersConnected.Set(float64(len(e.live)))
	e.vm.TransfersInflight.Set(float64(e.view.Trs.Len()))
}

// Dirty reports whether a pass could decide anything differently from the
// last: a task was queued, a table mutated, or a staging task awaits a
// replan.
func (e *Engine) Dirty() bool { return e.dirty || len(e.replan) > 0 }

// assign walks the queue in ID order. Every task asks for at least one core
// unless zeroCore counts it, so once the free cores are gone nothing further
// can assign: the walk stops and costs what it scanned.
func (e *Engine) assign() {
	if e.unsorted {
		slices.Sort(e.waiting)
		e.unsorted = false
	}
	queue, free := e.waiting, e.freeCores
	if free <= 0 && e.zeroCore == 0 {
		return
	}
	e.walking = true
	defer e.endWalk()
	kept := 0
	for i, id := range queue {
		if free <= 0 && e.zeroCore == 0 {
			// Slide the kept entries up against the untouched tail rather
			// than moving the tail down.
			copy(queue[i-kept:i], queue[:kept])
			e.waiting = queue[i-kept:]
			return
		}
		t := e.sub.Task(id)
		if t == nil || t.State != taskspec.StateWaiting {
			continue
		}
		if !e.tryAssign(id, t) {
			queue[kept] = id
			kept++
			continue
		}
		free -= t.Req.Cores
	}
	e.waiting = queue[:kept]
}

// endWalk merges the tasks queued during a walk.
func (e *Engine) endWalk() {
	e.walking = false
	if len(e.late) > 0 {
		e.waiting = append(e.waiting, e.late...)
		e.late = e.late[:0]
		slices.Sort(e.waiting)
	}
}

// tryAssign picks a worker for a waiting task and moves it to staging.
func (e *Engine) tryAssign(id int, t *Task) bool {
	if !e.inputsExist(t) {
		return false
	}
	cands := e.sub.Candidates(id)
	if len(cands) == 0 {
		return false
	}
	needs := e.scratchNeeds(t)
	if e.IgnoreLocality {
		needs = nil
	}
	chosen, ok := policy.BestWorker(needs, t.Req, cands, e.view)
	if !ok || !e.sub.Alloc(id, chosen.ID) {
		return false
	}
	t.Worker = chosen.ID
	e.SetState(id, t, taskspec.StateStaging)
	e.progressStaging(id, t)
	return true
}

// progressStaging plans a staging task's inputs at its worker, starts the
// plan's transfers and MiniTask unpacks, and dispatches the task once every
// input is there. A task that cannot start yet is parked, unless starting
// its plan was refused somewhere (park.go).
func (e *Engine) progressStaging(id int, t *Task) {
	e.Plans++
	w := t.Worker
	needs := e.scratchNeeds(t)
	plan := &e.plan
	policy.PlanTransfers(plan, needs, w, e.limits, e.view)
	settled := true
	for _, tr := range plan.Transfers {
		settled = e.StartTransfer(tr.File, tr.Source, w) && settled
	}
	for _, b := range plan.Blocked {
		settled = e.sub.Materialize(b, w) && settled
	}
	if t.State != taskspec.StateStaging {
		return // a failure on the way requeued it
	}
	for _, in := range t.Inputs {
		if !e.view.Reps.Has(in, w) {
			if settled {
				e.park(id, t, w, needs, plan.Blocked)
			}
			return
		}
	}
	e.sub.Dispatch(id, w)
}

// Needs appends to buf what inputs need: each distinct file once, after
// the inputs of a MiniTask product that has no replica anywhere.
func (e *Engine) Needs(buf []policy.FileNeed, inputs []replica.FileH) []policy.FileNeed {
	e.needGen++
	for _, in := range inputs {
		buf = e.addNeed(buf, in)
	}
	return buf
}

func (e *Engine) addNeed(needs []policy.FileNeed, f replica.FileH) []policy.FileNeed {
	fs := e.file(f)
	if fs.seen == e.needGen {
		return needs
	}
	fs.seen = e.needGen
	n, mini, ok := e.sub.File(f)
	if !ok {
		return needs
	}
	if len(mini) > 0 && e.view.Reps.CountReplicas(f) == 0 {
		for _, in := range mini {
			needs = e.addNeed(needs, in)
		}
	}
	return append(needs, n)
}

// scratchNeeds is Needs of a task's inputs in a reused buffer, valid until
// the next call.
func (e *Engine) scratchNeeds(t *Task) []policy.FileNeed {
	e.needBuf = e.Needs(e.needBuf[:0], t.Inputs)
	return e.needBuf
}

// Live returns the live workers in join order. Callers must not keep it
// past the next Join, WorkerLost or Refresh.
func (e *Engine) Live() []policy.WorkerInfo { return e.live }

// LiveWith returns the live workers for which ok holds, in join order, in
// a buffer the next call reuses.
func (e *Engine) LiveWith(ok func(replica.WorkerH) bool) []policy.WorkerInfo {
	out := e.libBuf[:0]
	for _, wi := range e.live {
		if ok(wi.ID) {
			out = append(out, wi)
		}
	}
	e.libBuf = out
	return out
}

// FreeCores returns the live workers' free cores.
func (e *Engine) FreeCores() int { return e.freeCores }

// Join inserts worker w into the live view at its join-order position.
func (e *Engine) Join(w replica.WorkerH, order int) {
	at := sort.Search(len(e.live), func(i int) bool { return e.live[i].JoinOrder > order })
	e.live = slices.Insert(e.live, at, policy.WorkerInfo{ID: w, JoinOrder: order})
	e.renumber(at)
}

// leave removes worker w from the live view.
func (e *Engine) leave(w replica.WorkerH) {
	ws := e.worker(w)
	at := ws.livePos - 1
	e.freeCores -= e.live[at].Free.Cores
	e.live = slices.Delete(e.live, at, at+1)
	ws.livePos = 0
	e.renumber(at)
}

func (e *Engine) renumber(from int) {
	for i := from; i < len(e.live); i++ {
		e.worker(e.live[i].ID).livePos = i + 1
	}
}

// Refresh records a live worker's free resources and task count; every
// allocation, release and task-list change calls it.
func (e *Engine) Refresh(w replica.WorkerH, free resources.R, running int) {
	at := e.worker(w).livePos
	if at == 0 {
		return
	}
	wi := &e.live[at-1]
	e.freeCores += free.Cores - wi.Free.Cores
	wi.Free, wi.RunningTasks = free, running
}

// Parked reports whether a staging task is parked.
func (t *Task) Parked() bool { return t.parked }
