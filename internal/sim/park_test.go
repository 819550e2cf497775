package sim

import (
	"testing"

	"taskvine/internal/chaos"
	"taskvine/internal/files"
	"taskvine/internal/policy"
	"taskvine/internal/trace"
)

// Each wake path of the parking rule: a staging task parked on its inputs
// must be replanned when one of them changes. Every test checks, with a
// probe event, that the task really was parked, then that the run
// completes with the transfers only a replan would start.

// parkedAt records whether task id is parked at virtual time at.
func parkedAt(c *Cluster, id int, at float64) *bool {
	var parked bool
	c.eng.At(at, func() { parked = c.tasks[id].parked })
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
