package sim_test

import (
	"runtime"
	"testing"

	"taskvine/internal/policy"
	"taskvine/internal/sim"
	"taskvine/internal/workloads"
)

// TestStagingPlansAtBenchmarkScale bounds the staging plans of the TopEFT
// the benchmark simulates (2,000 process tasks on 25 four-core workers).
// Replanning every slot-blocked or just-dispatched task on every pass, and
// every parked task on every worker join, made 11,166 plans for its 2,252
// tasks; parking them leaves 5,880.
func TestStagingPlansAtBenchmarkScale(t *testing.T) {
	w, c := benchmarkTopEFT()
	c.Run()
	if got, want := c.CompletedTasks(), len(w.Tasks); got != want {
		t.Fatalf("completed %d/%d tasks", got, want)
	}
	plans := sim.StagingPlans(c)
	t.Logf("%d staging plans for %d tasks", plans, len(w.Tasks))
	if plans > 6000 {
		t.Fatalf("%d staging plans, want at most 6,000", plans)
	}
}

// benchmarkTopEFT builds the TopEFT the benchmark simulates: 2,000 process
// tasks (2,252 in all) on 25 four-core workers.
func benchmarkTopEFT() (*sim.Workload, *sim.Cluster) {
	cfg := workloads.DefaultTopEFT(false)
	cfg.ProcessTasks, cfg.FanIn = 2000, 9
	cfg.Workers, cfg.CoresPerWorker = 25, 4
	w := workloads.TopEFT(cfg)
	return w, sim.NewCluster(w, sim.DefaultParams(), policy.Limits{})
}

// TestSimAllocsAtBenchmarkScale bounds the heap allocations of one run of
// the benchmark's TopEFT. An event record and a timer per scheduled event,
// a closure per callback and a record per cached object made about 40 per
// task; recycled event and flow records and callbacks bound once leave
// under 7, most of them the growth of per-file tables on first use.
func TestSimAllocsAtBenchmarkScale(t *testing.T) {
	w, c := benchmarkTopEFT()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c.Run()
	runtime.ReadMemStats(&after)
	if got, want := c.CompletedTasks(), len(w.Tasks); got != want {
		t.Fatalf("completed %d/%d tasks", got, want)
	}
	perTask := float64(after.Mallocs-before.Mallocs) / float64(len(w.Tasks))
	t.Logf("%d allocations for %d tasks: %.1f a task", after.Mallocs-before.Mallocs, len(w.Tasks), perTask)
	if perTask > 8 {
		t.Fatalf("%.1f allocations a task, want at most 8", perTask)
	}
}
