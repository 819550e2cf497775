package sched

import (
	"fmt"
	"slices"
	"testing"

	"taskvine/internal/metrics"
	"taskvine/internal/policy"
	"taskvine/internal/replica"
	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
)

// stub is a scripted substrate: a test declares files, workers and tasks,
// runs passes, and mutates the tables the way a cluster's events would.
// Transfers start as pending replicas and land, fail or vanish only when
// the test says so.
type stub struct {
	t     *testing.T
	e     *Engine
	view  *policy.View
	names *replica.Names
	tasks map[int]*Task
	files map[replica.FileH]stubFile
	free  map[replica.WorkerH]int
	joins int
	// passes counts Pass calls; starts and unpacks record what the engine
	// started, with the pass that started it.
	passes     int
	starts     []started
	unpacks    []started
	dispatched []int
	// refuse makes the next n starts of a file unsettled, starting nothing;
	// onStart runs inside every started transfer, after it is recorded,
	// and reports whether the start stays settled.
	refuse  map[replica.FileH]int
	onStart func(f replica.FileH) bool
	// now is the substrate clock; producers maps a temp to its producer;
	// requeued records the engine's Requeue calls.
	now       float64
	producers map[replica.FileH]int
	requeued  []requeue
}

type requeue struct {
	id         int
	lost, from string
}

type stubFile struct {
	need policy.FileNeed
	mini []replica.FileH
}

type started struct {
	file, src, dest string
	pass            int
}

func newStub(t *testing.T, limits policy.Limits) *stub {
	names := replica.NewNames()
	s := &stub{
		t: t, names: names, view: policy.NewView(names),
		tasks: map[int]*Task{}, files: map[replica.FileH]stubFile{},
		free: map[replica.WorkerH]int{}, refuse: map[replica.FileH]int{},
		producers: map[replica.FileH]int{},
	}
	s.e = New(s, s.view, limits, metrics.ForRegistry(metrics.NewRegistry()))
	return s
}

// url declares a file served from the URL source src.
func (s *stub) url(name, src string) replica.FileH {
	f := s.names.Files.Intern(name)
	s.files[f] = stubFile{need: policy.FileNeed{ID: f, Size: 100, FixedSource: s.names.FixedSource(replica.SourceURL, src)}}
	return f
}

// temp declares a file task producer writes, with no fixed source.
func (s *stub) temp(name string, producer int) replica.FileH {
	f := s.names.Files.Intern(name)
	s.files[f] = stubFile{need: policy.FileNeed{ID: f, Size: 100}}
	s.producers[f] = producer
	return f
}

// mini declares a MiniTask product unpacked from inputs.
func (s *stub) mini(name string, inputs ...replica.FileH) replica.FileH {
	f := s.names.Files.Intern(name)
	s.files[f] = stubFile{need: policy.FileNeed{ID: f, Size: 100}, mini: append([]replica.FileH{}, inputs...)}
	return f
}

func (s *stub) worker(name string, cores int) replica.WorkerH {
	w := s.names.Workers.Intern(name)
	s.e.Join(w, s.joins)
	s.joins++
	s.setFree(w, cores)
	return w
}

func (s *stub) setFree(w replica.WorkerH, cores int) {
	s.free[w] = cores
	s.e.Refresh(w, resources.R{Cores: cores}, 0)
}

func (s *stub) task(id int, inputs ...replica.FileH) {
	t := &Task{Req: resources.R{Cores: 1}, Inputs: inputs}
	s.tasks[id] = t
	s.e.Submit(id, t)
}

func (s *stub) pass() {
	s.passes++
	s.e.Pass(func() {})
}

func (s *stub) Task(id int) *Task { return s.tasks[id] }

func (s *stub) File(f replica.FileH) (policy.FileNeed, []replica.FileH, bool) {
	sf, ok := s.files[f]
	return sf.need, sf.mini, ok
}

func (s *stub) Producer(f replica.FileH) (int, *Task, bool) {
	id, ok := s.producers[f]
	if !ok {
		return 0, nil, false
	}
	return id, s.tasks[id], false
}

// OnWorker lists a worker's tasks in descending ID order, so that tests
// see the engine impose ID order itself.
func (s *stub) OnWorker(buf []int, w replica.WorkerH) []int {
	at := len(buf)
	for id, t := range s.tasks {
		if t.Worker == w {
			buf = append(buf, id)
		}
	}
	slices.Sort(buf[at:])
	slices.Reverse(buf[at:])
	return buf
}

// Requeue gives back the task's core and requeues it.
func (s *stub) Requeue(id int, lost replica.FileH, from replica.WorkerH) {
	t := s.tasks[id]
	if t.State != taskspec.StateDone {
		s.setFree(t.Worker, s.free[t.Worker]+1)
	}
	s.requeued = append(s.requeued, requeue{id, s.names.Files.Name(lost), s.names.Workers.Name(from)})
	s.e.Requeue(id, t)
}

func (s *stub) Now() float64 { return s.now }

func (s *stub) Candidates(int) []policy.WorkerInfo { return s.e.Live() }

func (s *stub) Alloc(_ int, w replica.WorkerH) bool {
	if s.free[w] == 0 {
		return false
	}
	s.setFree(w, s.free[w]-1)
	return true
}

func (s *stub) StartTransfer(f replica.FileH, src replica.Source, dest replica.WorkerH) bool {
	if s.refuse[f] > 0 {
		s.refuse[f]--
		return false
	}
	s.view.Trs.Start(f, src, dest)
	s.view.Reps.Add(f, dest, replica.Pending)
	label := "url"
	if w := src.Worker(); w != 0 {
		label = "worker:" + s.names.Workers.Name(w)
	}
	s.starts = append(s.starts, started{s.names.Files.Name(f), label, s.names.Workers.Name(dest), s.passes})
	return s.onStart == nil || s.onStart(f)
}

func (s *stub) Materialize(f replica.FileH, dest replica.WorkerH) bool {
	sf := s.files[f]
	if len(sf.mini) == 0 || s.view.Reps.HasAny(f, dest) || s.view.Reps.CountReplicas(f) > 0 {
		return true
	}
	for _, in := range sf.mini {
		if !s.view.Reps.Has(in, dest) {
			return true
		}
	}
	if s.refuse[f] > 0 {
		s.refuse[f]--
		return false
	}
	s.view.Reps.Add(f, dest, replica.Pending)
	s.unpacks = append(s.unpacks, started{s.names.Files.Name(f), "", s.names.Workers.Name(dest), s.passes})
	return true
}

func (s *stub) Dispatch(id int, _ replica.WorkerH) {
	s.dispatched = append(s.dispatched, id)
	s.e.Run(id, s.tasks[id])
}

// transfer returns the in-flight transfer of f to dest.
func (s *stub) transfer(f replica.FileH, dest replica.WorkerH) replica.Transfer {
	for _, tr := range s.view.Trs.All() {
		if tr.File == f && tr.Dest == dest {
			return tr
		}
	}
	s.t.Fatalf("no transfer of %s to %s in flight", s.names.Files.Name(f), s.names.Workers.Name(dest))
	return replica.Transfer{}
}

// land completes the transfer of f to dest; fail ends it without the
// object.
func (s *stub) land(f replica.FileH, dest replica.WorkerH) {
	s.view.Trs.Complete(s.transfer(f, dest).ID)
	s.view.Reps.Commit(f, dest)
}

func (s *stub) fail(f replica.FileH, dest replica.WorkerH) {
	s.view.Trs.Complete(s.transfer(f, dest).ID)
	s.view.Reps.Remove(f, dest)
}

// leave reports a worker lost.
func (s *stub) leave(w replica.WorkerH) { s.e.WorkerLost(w) }

func (s *stub) parked(id int) bool { return s.tasks[id].parked }

func (s *stub) startsOf(file string) []started {
	var out []started
	for _, st := range s.starts {
		if st.file == file {
			out = append(out, st)
		}
	}
	return out
}

// startOnce returns the one start of a file.
func (s *stub) startOnce(file string) started {
	s.t.Helper()
	st := s.startsOf(file)
	if len(st) != 1 {
		s.t.Fatalf("%s started %d times, want once: %v", file, len(st), st)
	}
	return st[0]
}

func (s *stub) requireDispatched(ids ...int) {
	s.t.Helper()
	if fmt.Sprint(s.dispatched) != fmt.Sprint(ids) {
		s.t.Fatalf("dispatched %v, want %v", s.dispatched, ids)
	}
}

// TestTransitionTable pins the legal-transition table: every transition
// the manager and the simulator make is legal, and SetState panics on
// every other pair.
func TestTransitionTable(t *testing.T) {
	const (
		declared  = taskspec.StateDeclared
		waiting   = taskspec.StateWaiting
		staging   = taskspec.StateStaging
		running   = taskspec.StateRunning
		done      = taskspec.StateDone
		failed    = taskspec.StateFailed
		returning = taskspec.StateReturning
	)
	used := []struct {
		why      string
		from, to taskspec.State
	}{
		{"submit", declared, waiting},
		{"library deployment (core)", declared, running},
		{"assign to a worker", waiting, staging},
		{"direct-routed invoke (core)", waiting, running},
		{"dispatch", staging, running},
		{"requeue from staging (worker loss, abandoned placement)", staging, waiting},
		{"requeue from running (worker loss, task retry)", running, waiting},
		{"requeue while returning outputs (sim worker loss)", returning, waiting},
		{"lost-temp recovery", done, waiting},
		{"cancel a waiting task (core)", waiting, failed},
		{"cancel a staging task (core)", staging, failed},
		{"completion", running, done},
		{"failure, cancel of a running task, retries exhausted", running, failed},
		{"output return (sim shared-storage mode)", running, returning},
		{"outputs returned (sim)", returning, done},
	}
	want := map[[2]taskspec.State]string{}
	for _, u := range used {
		want[[2]taskspec.State{u.from, u.to}] = u.why
	}
	e := newStub(t, policy.Limits{}).e
	for from := declared; from <= returning; from++ {
		for to := declared; to <= returning; to++ {
			if from == to {
				continue
			}
			why, legal := want[[2]taskspec.State{from, to}]
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				e.SetState(1, &Task{State: from}, to)
				return false
			}()
			if panicked == legal {
				t.Errorf("SetState %v -> %v: panicked = %v, want %v (%s)", from, to, panicked, !legal, why)
			}
		}
	}
}

// The counts follow every transition, and a waiting task that asks for no
// cores keeps the queue walk going when no core is free.
func TestCountsAndZeroCoreWalk(t *testing.T) {
	s := newStub(t, policy.Limits{})
	w := s.worker("w0", 0)
	s.task(1)
	s.tasks[2] = &Task{}
	s.e.Submit(2, s.tasks[2])
	if got := s.e.Count(taskspec.StateWaiting); got != 2 {
		t.Fatalf("waiting = %d, want 2", got)
	}
	s.free[w] = 1 // zero-core requests fit a full worker in this stub
	s.pass()
	s.requireDispatched(2)
	if s.e.Count(taskspec.StateWaiting) != 1 || s.e.Count(taskspec.StateRunning) != 1 {
		t.Fatalf("waiting %d, running %d; want 1 and 1", s.e.Count(taskspec.StateWaiting), s.e.Count(taskspec.StateRunning))
	}
}

// Requeued tasks rejoin the queue in ID order, including those queued
// while a walk is running.
func TestRequeueKeepsIDOrder(t *testing.T) {
	s := newStub(t, policy.Limits{})
	w := s.worker("w0", 3)
	for id := 1; id <= 3; id++ {
		s.task(id)
	}
	s.pass()
	s.requireDispatched(1, 2, 3)
	for _, id := range []int{3, 1} {
		s.e.Requeue(id, s.tasks[id])
	}
	s.setFree(w, 2)
	s.pass()
	s.requireDispatched(1, 2, 3, 1, 3)
}

// Each wake path of the parking rule: a parked staging task must be
// replanned when one of its inputs changes or a slot it waits on frees,
// and only then.

// A failed transfer of the parked task's only input removes the pending
// replica; the wake must replan the task so it fetches the input again.
func TestParkedTaskWakesOnFailedInflightInput(t *testing.T) {
	s := newStub(t, policy.DefaultLimits())
	in := s.url("in", "/in")
	w := s.worker("w0", 2)
	s.task(1, in)
	s.pass()
	if !s.parked(1) {
		t.Fatal("task 1 was not parked while its input was in flight")
	}
	s.pass()
	if len(s.starts) != 1 {
		t.Fatalf("a pass with nothing changed started %v", s.starts)
	}
	s.fail(in, w)
	if s.parked(1) || !s.e.Dirty() {
		t.Fatal("the failed transfer did not wake task 1")
	}
	s.pass()
	if got := len(s.starts); got != 2 {
		t.Fatalf("transfers started = %d, want 2 (the failed fetch and its retry)", got)
	}
	s.land(in, w)
	s.pass()
	s.requireDispatched(1)
}

// Admitting another task's input evicts a ready input of the parked task;
// the wake must replan it before its other input lands, refetching the
// evicted one.
func TestParkedTaskWakesOnEvictedReadyInput(t *testing.T) {
	s := newStub(t, policy.DefaultLimits())
	a, b := s.url("a", "/a"), s.url("b", "/b")
	w := s.worker("w0", 8)
	s.view.Reps.Commit(a, w)
	s.task(1, a, b)
	s.pass()
	if !s.parked(1) {
		t.Fatal("task 1 was not parked with a ready and b in flight")
	}
	s.view.Reps.Remove(a, w) // evicted
	s.pass()
	refetch := s.startOnce("a")
	if refetch.pass != 2 {
		t.Fatalf("a refetched in pass %d, want 2, before b lands", refetch.pass)
	}
	s.land(a, w)
	s.land(b, w)
	s.pass()
	s.requireDispatched(1)
	if got := len(s.starts); got != 2 {
		t.Fatalf("transfers started = %d, want 2 (b, and a again)", got)
	}
}

// The worker serving the parked task's input leaves mid-transfer; the wake
// must replan the task onto the input's fixed source.
func TestParkedTaskWakesOnSourceWorkerLeave(t *testing.T) {
	s := newStub(t, policy.DefaultLimits())
	in := s.url("in", "/in")
	w0 := s.worker("w0", 0) // holds the input, has no free core
	w1 := s.worker("w1", 1)
	s.view.Reps.Commit(in, w0)
	s.task(2, in)
	s.pass()
	if !s.parked(2) {
		t.Fatal("task 2 was not parked while its input was in flight")
	}
	s.leave(w0)
	s.pass()
	s.land(in, w1)
	s.pass()
	s.requireDispatched(2)
	if len(s.starts) != 2 || s.starts[0].src != "worker:w0" || s.starts[1].src != "url" {
		t.Fatalf("transfers %v; want from worker:w0, then from the URL", s.starts)
	}
}

// The parked task waits on a MiniTask product being unpacked at its
// worker; the product landing must wake it to run.
func TestParkedTaskWakesOnMiniProductLanding(t *testing.T) {
	s := newStub(t, policy.DefaultLimits())
	tarball := s.url("env.tar", "/env.tar")
	env := s.mini("env", tarball)
	w := s.worker("w0", 2)
	s.task(1, env)
	s.pass()
	if !s.parked(1) || len(s.unpacks) != 0 {
		t.Fatalf("after the first pass: parked %v, unpacks %v; want parked on the tarball", s.parked(1), s.unpacks)
	}
	s.land(tarball, w)
	s.pass()
	if len(s.unpacks) != 1 || !s.parked(1) {
		t.Fatalf("after the tarball landed: unpacks %v, parked %v; want one unpack, parked", s.unpacks, s.parked(1))
	}
	s.pass()
	s.requireDispatched()
	s.view.Reps.Commit(env, w)
	s.pass()
	s.requireDispatched(1)
	if got := len(s.starts); got != 1 {
		t.Fatalf("transfers started = %d, want 1 (the tarball only)", got)
	}
}

// A wake inside the staging loop, for a task further along it, must replan
// that task in the same pass, as a pass replanning every staging task in
// ID order would: task 1's transfer evicts parked task 2's ready input,
// and task 2 refetches it in that very pass.
func TestParkedTaskWokenMidPassReplansInSamePass(t *testing.T) {
	s := newStub(t, policy.DefaultLimits())
	a, b, d := s.url("a", "/a"), s.url("b", "/b"), s.url("d", "/d")
	w := s.worker("w0", 8)
	s.view.Reps.Commit(a, w)
	s.refuse[d] = 1 // task 1's first plan is unsettled: it is replanned next pass
	s.task(1, d)
	s.task(2, a, b)
	s.pass()
	if s.parked(1) || !s.parked(2) {
		t.Fatalf("parked = %v, %v; want task 1 on the replan list, task 2 parked", s.parked(1), s.parked(2))
	}
	s.onStart = func(f replica.FileH) bool {
		if f == d {
			s.view.Reps.Remove(a, w) // admitting d evicts a
		}
		return true
	}
	s.pass()
	if dst, ast := s.startOnce("d"), s.startOnce("a"); dst.pass != 2 || ast.pass != 2 {
		t.Fatalf("d started in pass %d, a refetched in pass %d; want both in pass 2", dst.pass, ast.pass)
	}
}

// The parked task waits for a peer slot at the only holder of its input,
// which is busy serving another file; that serve completing must wake it,
// though its own input never changes.
func TestSlotBlockedTaskWakesOnPeerServeCompleting(t *testing.T) {
	s := newStub(t, policy.Limits{WorkerSource: 1})
	x, y := s.url("x", "/x"), s.url("y", "/y")
	w0 := s.worker("w0", 0)
	w1 := s.worker("w1", 1)
	s.worker("w2", 1)
	s.view.Reps.Commit(x, w0)
	s.view.Reps.Commit(y, w0)
	s.task(2, y) // takes w0's only serving slot
	s.task(3, x) // x is in the cluster: waits for that slot
	s.pass()
	if !s.parked(3) || len(s.startsOf("x")) != 0 {
		t.Fatal("task 3 was not parked slot-blocked")
	}
	s.pass()
	s.land(y, w1)
	s.pass()
	xs := s.startOnce("x")
	if xs.src != "worker:w0" || xs.dest != "w2" || xs.pass != 3 {
		t.Fatalf("x started %+v; want by w2 from worker:w0 in pass 3, the one after y landed", xs)
	}
}

// The parked task waits for a destination slot at its own worker, which is
// receiving another task's input; that transfer completing must wake it.
func TestSlotBlockedTaskWakesOnDestSlotFreeing(t *testing.T) {
	s := newStub(t, policy.Limits{WorkerDest: 1})
	a, b := s.url("a", "/a"), s.url("b", "/b")
	w := s.worker("w0", 2)
	s.task(1, a)
	s.task(2, b)
	s.pass()
	if !s.parked(2) {
		t.Fatal("task 2 was not parked on its destination slot")
	}
	s.pass()
	s.land(a, w)
	s.pass()
	if bs := s.startOnce("b"); bs.pass != 3 {
		t.Fatalf("b started in pass %d, want 3: the one after a landed", bs.pass)
	}
	s.requireDispatched(1)
}

// The parked task waits for a peer slot at the only holder of its input;
// when that holder leaves, the task must be replanned onto the input's
// fixed source at once.
func TestSlotBlockedTaskReplansWhenHolderLeaves(t *testing.T) {
	s := newStub(t, policy.Limits{WorkerSource: 1})
	x, y := s.url("x", "/x"), s.url("y", "/y")
	w0 := s.worker("w0", 0)
	s.worker("w1", 1)
	s.worker("w2", 1)
	s.view.Reps.Commit(x, w0)
	s.view.Reps.Commit(y, w0)
	s.task(2, y)
	s.task(3, x)
	s.pass()
	if !s.parked(3) {
		t.Fatal("task 3 was not parked slot-blocked")
	}
	s.leave(w0)
	s.pass()
	if xs := s.startOnce("x"); xs.src != "url" || xs.pass != 2 {
		t.Fatalf("x started %+v; want from url in pass 2, the one after w0 left", xs)
	}
}

// A task whose first plan starts its transfers is parked by the very pass
// that dispatched it: its next plan could only find them in flight.
func TestTaskParksInItsDispatchingPass(t *testing.T) {
	s := newStub(t, policy.Limits{URLSource: 1})
	a, b := s.url("a", "/a"), s.url("b", "/b")
	s.worker("w0", 1)
	s.worker("w1", 1)
	s.task(1, a, b)
	s.task(2, a, b) // slot-blocked: task 1's fetches hold both URLs' only slots
	s.pass()
	if !s.parked(1) || !s.parked(2) {
		t.Fatalf("after the dispatching pass, parked = %v (transfers started), %v (slot-blocked); want both",
			s.parked(1), s.parked(2))
	}
	plans := s.e.Plans
	s.pass()
	if s.e.Plans != plans {
		t.Fatalf("the next pass made %d plans for parked tasks", s.e.Plans-plans)
	}
}

// A plan whose admission was refused is retried by the next pass, not
// parked: the retry waits on disk space, which no table mutation signals.
func TestRefusedAdmissionIsRetriedNextPass(t *testing.T) {
	for _, unpack := range []bool{false, true} {
		t.Run(fmt.Sprintf("unpack=%v", unpack), func(t *testing.T) {
			s := newStub(t, policy.DefaultLimits())
			in := s.url("in", "/in")
			w := s.worker("w0", 2)
			refused, retries := in, &s.starts
			if unpack {
				refused, retries = s.mini("env", in), &s.unpacks
				s.view.Reps.Commit(in, w)
			}
			s.refuse[refused] = 1
			s.task(1, refused)
			s.pass()
			if s.parked(1) || len(*retries) != 0 || !s.e.Dirty() {
				t.Fatalf("refused plan: parked %v, started %v, dirty %v; want on the replan list",
					s.parked(1), *retries, s.e.Dirty())
			}
			s.pass()
			if len(*retries) != 1 || (*retries)[0].pass != 2 {
				t.Fatalf("retried %v, want once in pass 2", *retries)
			}
		})
	}
}

// Admitting the task's own input evicts its other, ready input. The plan
// then needs that input fetched again, so the task is not parked: the
// next pass refetches it while the first transfer is still in flight.
func TestSelfEvictingPlanIsRetriedNextPass(t *testing.T) {
	s := newStub(t, policy.DefaultLimits())
	a, b := s.url("a", "/a"), s.url("b", "/b")
	w := s.worker("w0", 2)
	s.view.Reps.Commit(a, w)
	s.onStart = func(f replica.FileH) bool {
		if f != b {
			return true
		}
		s.view.Reps.Remove(a, w) // admitting b evicts a: unsettled
		return false
	}
	s.task(1, a, b)
	s.pass()
	if s.parked(1) {
		t.Fatal("task 1 parked after a plan that evicted its own input")
	}
	s.pass()
	if as := s.startOnce("a"); as.pass != 2 {
		t.Fatalf("a refetched in pass %d, want 2, while b is in flight", as.pass)
	}
}
