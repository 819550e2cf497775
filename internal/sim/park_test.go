package sim

import (
	"testing"

	"taskvine/internal/chaos"
	"taskvine/internal/files"
	"taskvine/internal/policy"
	"taskvine/internal/trace"
)

// Each wake path of the parking rule: a parked staging task must be
// replanned when one of its inputs changes or a slot it waits on frees.
// The file-wake tests check, with a probe event, that the task really was
// parked, then that the run completes with the transfers only a replan
// would start. The slot-wake tests check that the task is replanned in the
// pass after the slot freed, as a pass replanning every staging task
// would replan it.

// parkedAt records whether task id is parked at virtual time at.
func parkedAt(c *Cluster, id int, at float64) *bool {
	var parked bool
	c.eng.At(at, func() { parked = c.taskByID(id).Parked() })
	return &parked
}

// transferStarts returns the TransferStart events of the trace, optionally
// only those of one file.
func transferStarts(c *Cluster, file string) []trace.Event {
	var out []trace.Event
	for _, e := range c.Trace().Events() {
		if e.Kind == trace.TransferStart && (file == "" || e.File == file) {
			out = append(out, e)
		}
	}
	return out
}

func lastEvent(c *Cluster, kind trace.Kind, file string) (trace.Event, bool) {
	var last trace.Event
	found := false
	for _, e := range c.Trace().Events() {
		if e.Kind == kind && e.File == file {
			last, found = e, true
		}
	}
	return last, found
}

func urlFile(id string, size int64, life files.Lifetime) *File {
	return &File{ID: id, Size: size, Kind: FromURL, SourcePath: "/" + id, Lifetime: life}
}

// requireDone fails unless every task completed.
func requireDone(t *testing.T, c *Cluster, w *Workload) {
	t.Helper()
	if got := c.CompletedTasks(); got != len(w.Tasks) {
		t.Fatalf("completed %d/%d tasks", got, len(w.Tasks))
	}
}

// A failed transfer of the parked task's only input removes the pending
// replica; the wake must replan the task so it fetches the input again.
func TestParkedTaskWakesOnFailedInflightInput(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{"in": urlFile("in", 100e6, files.LifetimeWorkflow)},
		Tasks: []*Task{
			{ID: 1, Inputs: []string{"in"}, Runtime: 1, Cores: 1},
			// Finishes mid-transfer, so a pass replans task 1 and parks it.
			{ID: 2, Runtime: 1, Cores: 1},
		},
		Workers: []WorkerSpec{{ID: "w0", Cores: 2, Disk: 1e9}},
	}
	c := NewCluster(w, DefaultParams(), policy.DefaultLimits())
	c.InjectFaults(chaos.New(1).Add(chaos.Rule{Point: chaos.Transfer, Action: chaos.Fail, File: "in", Count: 1}))
	parked := parkedAt(c, 1, 2)
	c.Run()
	if !*parked {
		t.Fatal("task 1 was not parked while its input was in flight")
	}
	requireDone(t, c, w)
	if got := len(transferStarts(c, "")); got != 2 {
		t.Fatalf("TransferStart = %d, want 2 (the failed fetch and its retry)", got)
	}
}

// Admitting another task's input evicts a ready input of the parked task;
// the wake must replan it before its other input lands, refetching the
// evicted one.
func TestParkedTaskWakesOnEvictedReadyInput(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{
			"a":    urlFile("a", 100e6, files.LifetimeTask),
			"b":    urlFile("b", 100e6, files.LifetimeWorkflow),
			"d":    urlFile("d", 200e6, files.LifetimeWorkflow),
			"tick": {ID: "tick", Size: 1, Kind: Produced},
		},
		Tasks: []*Task{
			{ID: 1, Inputs: []string{"a", "b"}, Runtime: 1, Cores: 1},
			// Finishes at 0.25 s: its pass parks task 1 (a ready, b in flight).
			{ID: 2, Runtime: 0.25, Cores: 1},
			// Produces task 4's dependency at 0.5 s.
			{ID: 3, Runtime: 0.5, Cores: 1, Outputs: []Output{{ID: "tick", Size: 1}}},
			// Admitting d does not fit next to a: a, the oldest task-lifetime
			// object, is evicted while task 1 is parked.
			{ID: 4, Inputs: []string{"tick", "d"}, Runtime: 1, Cores: 1},
			// Finishes at 1 s, long before b lands: its pass replans task 1.
			{ID: 5, Runtime: 1, Cores: 1},
		},
		Workers: []WorkerSpec{{ID: "w0", Cores: 8, Disk: 250e6, Prestaged: []string{"a"}}},
	}
	c := NewCluster(w, DefaultParams(), policy.DefaultLimits())
	parked := parkedAt(c, 1, 0.4)
	c.Run()
	if !*parked {
		t.Fatal("task 1 was not parked with a ready and b in flight")
	}
	requireDone(t, c, w)
	if got := len(transferStarts(c, "")); got != 3 {
		t.Fatalf("TransferStart = %d, want 3 (b, d, and a again)", got)
	}
	if _, ok := lastEvent(c, trace.FileEvicted, "a"); !ok {
		t.Fatal("a was never evicted; the case does not exercise eviction")
	}
	refetch := transferStarts(c, "a")
	bEnd, _ := lastEvent(c, trace.TransferEnd, "b")
	if len(refetch) != 1 || refetch[0].Time >= bEnd.Time {
		t.Fatalf("a refetched %v; want once, before b landed at %.3f", refetch, bEnd.Time)
	}
}

// The worker serving the parked task's input leaves mid-transfer; the wake
// must replan the task onto the input's fixed source.
func TestParkedTaskWakesOnSourceWorkerLeave(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{"in": urlFile("in", 100e6, files.LifetimeWorkflow)},
		Tasks: []*Task{
			// Lands on w0 (join order) and fills its only core, so task 2
			// goes to w1 and fetches from w0, the peer holding the input.
			{ID: 1, Runtime: 10, Cores: 1},
			{ID: 2, Inputs: []string{"in"}, Runtime: 1, Cores: 1},
			// Finishes mid-transfer, so a pass parks task 2.
			{ID: 3, Runtime: 1, Cores: 1},
		},
		Workers: []WorkerSpec{
			{ID: "w0", Cores: 1, Disk: 1e9, Prestaged: []string{"in"}, LeaveTime: 2},
			{ID: "w1", Cores: 2, Disk: 1e9},
		},
	}
	c := NewCluster(w, DefaultParams(), policy.DefaultLimits())
	parked := parkedAt(c, 2, 1.5)
	c.Run()
	if !*parked {
		t.Fatal("task 2 was not parked while its input was in flight")
	}
	requireDone(t, c, w)
	starts := transferStarts(c, "")
	if len(starts) != 2 {
		t.Fatalf("TransferStart = %d, want 2 (from w0, then from the URL)", len(starts))
	}
	if starts[0].Source != "worker:w0" || starts[1].Source != "url" {
		t.Fatalf("transfer sources %q, %q; want worker:w0 then url", starts[0].Source, starts[1].Source)
	}
}

// The source of a flow leaves mid-transfer: the engine ends that transfer
// with it and re-plans the fetch from the URL. The departed source's flow
// still drains, but lands nothing: no replica at the receiver, so task 2
// waits for the URL copy, and no TransferEnd, so the input arrives once.
func TestDepartedSourceFlowLandsNothing(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{"in": urlFile("in", 100e6, files.LifetimeWorkflow)},
		Tasks: []*Task{
			{ID: 1, Runtime: 10, Cores: 1},
			{ID: 2, Inputs: []string{"in"}, Runtime: 1, Cores: 1},
		},
		Workers: []WorkerSpec{
			{ID: "w0", Cores: 1, Disk: 1e9, Prestaged: []string{"in"}, LeaveTime: 0.5},
			{ID: "w1", Cores: 1, Disk: 1e9},
		},
	}
	c := NewCluster(w, DefaultParams(), policy.DefaultLimits())
	c.Run()
	requireDone(t, c, w)
	if starts := transferStarts(c, "in"); len(starts) != 2 || starts[0].Source != "worker:w0" {
		t.Fatalf("transfers of in = %+v, want one from w0, then its re-plan", starts)
	}
	landed := false
	for _, e := range c.Trace().Events() {
		switch {
		case e.Kind == trace.TransferEnd && e.File == "in":
			if landed || e.Source != "url" {
				t.Fatalf("TransferEnd of in from %s at %.3f; want one, from the url", e.Source, e.Time)
			}
			landed = true
		case e.Kind == trace.TaskStart && e.TaskID == 2 && !landed:
			t.Fatalf("task 2 started at %.3f, before its input landed from the url", e.Time)
		}
	}
}

// The parked task waits on a MiniTask product being unpacked at its
// worker; the product landing must wake it to run.
func TestParkedTaskWakesOnMiniProductLanding(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{
			"env.tar": urlFile("env.tar", 10e6, files.LifetimeWorker),
			"env": {ID: "env", Size: 800e6, Kind: MiniProduct, MiniInputs: []string{"env.tar"},
				Lifetime: files.LifetimeWorker},
		},
		Tasks: []*Task{
			{ID: 1, Inputs: []string{"env"}, Runtime: 1, Cores: 1},
			// Finishes during the 2 s unpack, so a pass parks task 1.
			{ID: 2, Runtime: 1.5, Cores: 1},
		},
		Workers: []WorkerSpec{{ID: "w0", Cores: 2, Disk: 1e9}},
	}
	c := NewCluster(w, DefaultParams(), policy.DefaultLimits())
	parked := parkedAt(c, 1, 1.6)
	c.Run()
	if !*parked {
		t.Fatal("task 1 was not parked while its input was unpacking")
	}
	requireDone(t, c, w)
	if got := len(transferStarts(c, "")); got != 1 {
		t.Fatalf("TransferStart = %d, want 1 (the tarball only)", got)
	}
	stageEnd, ok := lastEvent(c, trace.StageEnd, "env")
	if !ok {
		t.Fatal("env was never materialized")
	}
	for _, e := range c.Trace().Events() {
		if e.Kind == trace.TaskStart && e.TaskID == 1 && e.Time < stageEnd.Time {
			t.Fatalf("task 1 started at %.3f, before env landed at %.3f", e.Time, stageEnd.Time)
		}
	}
}

// A wake inside the staging loop, for a task further along it, must replan
// that task in the same pass, as a pass replanning every staging task in
// ID order would: task 1's transfer evicts parked task 2's ready input,
// and task 2 refetches it at that very instant.
func TestParkedTaskWokenMidPassReplansInSamePass(t *testing.T) {
	data := func(id string, size int64) *File {
		return &File{ID: id, Size: size, Kind: FromURL, SourcePath: "/data", Lifetime: files.LifetimeWorkflow}
	}
	w := &Workload{
		Files: map[string]*File{
			"a":    urlFile("a", 100e6, files.LifetimeTask),
			"b":    urlFile("b", 200e6, files.LifetimeWorkflow),
			"d":    data("d", 300e6),
			"z":    data("z", 25e6),
			"tick": {ID: "tick", Size: 1, Kind: Produced},
		},
		Tasks: []*Task{
			// Waits for tick, then is slot-blocked on /data while z is in
			// flight; when z lands, admitting d evicts a.
			{ID: 1, Inputs: []string{"tick", "d"}, Runtime: 1, Cores: 1},
			// Parks at 0.25 s with a ready and b in flight.
			{ID: 2, Inputs: []string{"a", "b"}, Runtime: 1, Cores: 1},
			{ID: 3, Inputs: []string{"z"}, Runtime: 1, Cores: 1},
			{ID: 4, Runtime: 0.25, Cores: 1, Outputs: []Output{{ID: "tick", Size: 1}}},
		},
		Workers: []WorkerSpec{{ID: "w0", Cores: 8, Disk: 350e6, Prestaged: []string{"a"}}},
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{URLSource: 1})
	parked := parkedAt(c, 2, 0.5)
	c.Run()
	if !*parked {
		t.Fatal("task 2 was not parked with a ready and b in flight")
	}
	requireDone(t, c, w)
	evicted, ok := lastEvent(c, trace.FileEvicted, "a")
	if !ok {
		t.Fatal("a was never evicted; the case does not exercise eviction")
	}
	refetch := transferStarts(c, "a")
	if len(refetch) != 1 || refetch[0].Time != evicted.Time {
		t.Fatalf("a refetched %v; want once, in the pass that evicted it at %.3f", refetch, evicted.Time)
	}
	if got := len(transferStarts(c, "")); got != 4 {
		t.Fatalf("TransferStart = %d, want 4 (b, z, d, and a again)", got)
	}
}

// transferStart returns the one TransferStart event of a file.
func transferStart(t *testing.T, c *Cluster, file string) trace.Event {
	t.Helper()
	starts := transferStarts(c, file)
	if len(starts) != 1 {
		t.Fatalf("%s transferred %d times, want once: %v", file, len(starts), starts)
	}
	return starts[0]
}

// requireStartsInPassAfter fails unless the event came from the pass that
// the end of the other transfer requested.
func requireStartsInPassAfter(t *testing.T, c *Cluster, e trace.Event, endFile string) {
	t.Helper()
	end, ok := lastEvent(c, trace.TransferEnd, endFile)
	if !ok {
		t.Fatalf("%s never landed", endFile)
	}
	if want := end.Time + DefaultParams().ControlLatency; !almostEqual(e.Time, want) {
		t.Fatalf("%s started at %.6f, want %.6f: the pass after %s landed", e.File, e.Time, want, endFile)
	}
}

// The parked task waits for a peer slot at the only holder of its input,
// which is busy serving another file; that serve completing must wake it,
// though its own input never changes.
func TestSlotBlockedTaskWakesOnPeerServeCompleting(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{
			"x": urlFile("x", 10e6, files.LifetimeWorkflow),
			"y": urlFile("y", 100e6, files.LifetimeWorkflow),
		},
		Tasks: []*Task{
			// Fills w0, the holder of x and y, so tasks 2 and 3 go to peers.
			{ID: 1, Runtime: 30, Cores: 1},
			// Fetches y from w0, taking its only serving slot.
			{ID: 2, Inputs: []string{"y"}, Runtime: 1, Cores: 1},
			// x is in the cluster, so the task waits for w0's slot.
			{ID: 3, Inputs: []string{"x"}, Runtime: 1, Cores: 1},
		},
		Workers: []WorkerSpec{
			{ID: "w0", Cores: 1, Disk: 1e9, Prestaged: []string{"x", "y"}},
			{ID: "w1", Cores: 1, Disk: 1e9},
			{ID: "w2", Cores: 1, Disk: 1e9},
		},
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{WorkerSource: 1})
	c.Run()
	requireDone(t, c, w)
	x := transferStart(t, c, "x")
	if x.Source != "worker:w0" || x.Worker != "w2" {
		t.Fatalf("x fetched by %s from %s, want by w2 from worker:w0", x.Worker, x.Source)
	}
	requireStartsInPassAfter(t, c, x, "y")
}

// The parked task waits for a destination slot at its own worker, which is
// receiving another task's input; that transfer completing must wake it.
func TestSlotBlockedTaskWakesOnDestSlotFreeing(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{
			"a": urlFile("a", 100e6, files.LifetimeWorkflow),
			"b": urlFile("b", 10e6, files.LifetimeWorkflow),
		},
		Tasks: []*Task{
			{ID: 1, Inputs: []string{"a"}, Runtime: 1, Cores: 1},
			// w0 takes one incoming transfer at a time: b waits for a.
			{ID: 2, Inputs: []string{"b"}, Runtime: 1, Cores: 1},
		},
		Workers: []WorkerSpec{{ID: "w0", Cores: 2, Disk: 1e9}},
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{WorkerDest: 1})
	c.Run()
	requireDone(t, c, w)
	requireStartsInPassAfter(t, c, transferStart(t, c, "b"), "a")
}

// The parked task waits for a peer slot at the only holder of its input;
// when that holder leaves, the task must be replanned onto the input's
// fixed source at once.
func TestSlotBlockedTaskReplansWhenHolderLeaves(t *testing.T) {
	const leave = 2.0
	w := &Workload{
		Files: map[string]*File{
			"x": urlFile("x", 10e6, files.LifetimeWorkflow),
			"y": urlFile("y", 100e6, files.LifetimeWorkflow),
		},
		Tasks: []*Task{
			{ID: 1, Runtime: 30, Cores: 1},
			// Its fetch of y from w0 is still in flight when w0 leaves.
			{ID: 2, Inputs: []string{"y"}, Runtime: 1, Cores: 1},
			{ID: 3, Inputs: []string{"x"}, Runtime: 1, Cores: 1},
		},
		Workers: []WorkerSpec{
			{ID: "w0", Cores: 1, Disk: 1e9, Prestaged: []string{"x", "y"}, LeaveTime: leave},
			{ID: "w1", Cores: 1, Disk: 1e9},
			{ID: "w2", Cores: 1, Disk: 1e9},
		},
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{WorkerSource: 1})
	c.Run()
	requireDone(t, c, w)
	x := transferStart(t, c, "x")
	if want := leave + DefaultParams().ControlLatency; x.Source != "url" || !almostEqual(x.Time, want) {
		t.Fatalf("x fetched from %s at %.6f, want from url at %.6f", x.Source, x.Time, want)
	}
}

// A task whose first plan starts its transfers is parked by the very pass
// that dispatched it: its next plan could only find them in flight.
func TestTaskParksInItsDispatchingPass(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{
			"a": urlFile("a", 100e6, files.LifetimeWorkflow),
			"b": urlFile("b", 100e6, files.LifetimeWorkflow),
		},
		Tasks: []*Task{
			{ID: 1, Inputs: []string{"a", "b"}, Runtime: 1, Cores: 1},
			// Slot-blocked: task 1's fetches hold both URLs' only slots.
			{ID: 2, Inputs: []string{"a", "b"}, Runtime: 1, Cores: 1},
		},
		Workers: []WorkerSpec{{ID: "w0", Cores: 1, Disk: 1e9}, {ID: "w1", Cores: 1, Disk: 1e9}},
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{URLSource: 1})
	// The workers join at 0, and the pass they request runs at
	// ControlLatency; nothing lands for seconds after.
	at := 2 * DefaultParams().ControlLatency
	parked1, parked2 := parkedAt(c, 1, at), parkedAt(c, 2, at)
	c.Run()
	requireDone(t, c, w)
	if !*parked1 || !*parked2 {
		t.Fatalf("after the dispatching pass, parked = %v (transfers started), %v (slot-blocked); want both",
			*parked1, *parked2)
	}
}

// A plan whose admission was refused is retried by the next pass, not
// parked: the retry waits on disk space, which no table mutation signals.
// Task 2 runs first, in ID order, pinning inputs that leave no room for
// task 3's; task 2 finishing requests the pass that evicts them.
func TestRefusedAdmissionIsRetriedNextPass(t *testing.T) {
	for _, tc := range []struct {
		name, refused string
		retry         trace.Kind
	}{
		{"transfer", "in", trace.TransferStart},
		{"unpack", "env", trace.StageStart},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &Workload{
				Files: map[string]*File{
					"big":     urlFile("big", 100e6, files.LifetimeWorkflow),
					"in":      urlFile("in", 10e6, files.LifetimeWorkflow),
					"env.tar": urlFile("env.tar", 10e6, files.LifetimeWorker),
					"env": {ID: "env", Size: 100e6, Kind: MiniProduct, MiniInputs: []string{"env.tar"},
						Lifetime: files.LifetimeWorker},
				},
				Tasks: []*Task{
					{ID: 2, Inputs: []string{"big", "env.tar"}, Runtime: 1, Cores: 1},
					{ID: 3, Inputs: []string{tc.refused}, Runtime: 1, Cores: 1},
				},
				// Either refused object fits once big is evicted, not before.
				Workers: []WorkerSpec{{ID: "w0", Cores: 2, Disk: 115e6, Prestaged: []string{"big", "env.tar"}}},
			}
			c := NewCluster(w, DefaultParams(), policy.DefaultLimits())
			c.Run()
			requireDone(t, c, w)
			retry, ok := lastEvent(c, tc.retry, tc.refused)
			if !ok {
				t.Fatalf("%s never started", tc.refused)
			}
			var end2 trace.Event
			for _, e := range c.Trace().Events() {
				if e.Kind == trace.TaskEnd && e.TaskID == 2 {
					end2 = e
				}
			}
			if want := end2.Time + DefaultParams().ControlLatency; !almostEqual(retry.Time, want) {
				t.Fatalf("%s started at %.6f, want %.6f: the pass after task 2 ended", tc.refused, retry.Time, want)
			}
		})
	}
}

// Admitting the task's own input evicts its other, ready input. The plan
// then needs that input fetched again, so the task is not parked: the
// next pass, which task 2 finishing requests, refetches it while the first
// transfer is still in flight.
func TestSelfEvictingPlanIsRetriedNextPass(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{
			"a": urlFile("a", 100e6, files.LifetimeTask),
			"b": urlFile("b", 100e6, files.LifetimeWorkflow),
		},
		Tasks: []*Task{
			{ID: 1, Inputs: []string{"a", "b"}, Runtime: 1, Cores: 1},
			{ID: 2, Runtime: 1, Cores: 1},
		},
		Workers: []WorkerSpec{{ID: "w0", Cores: 2, Disk: 150e6, Prestaged: []string{"a"}}},
	}
	c := NewCluster(w, DefaultParams(), policy.DefaultLimits())
	c.Run()
	requireDone(t, c, w)
	if _, ok := lastEvent(c, trace.FileEvicted, "a"); !ok {
		t.Fatal("a was never evicted; the case does not exercise eviction")
	}
	a := transferStart(t, c, "a")
	bEnd, _ := lastEvent(c, trace.TransferEnd, "b")
	if want := 1 + 2*DefaultParams().ControlLatency; !almostEqual(a.Time, want) || a.Time >= bEnd.Time {
		t.Fatalf("a refetched at %.6f, want %.6f, before b landed at %.6f", a.Time, want, bEnd.Time)
	}
}
