package sim_test

import (
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
	cfg := workloads.DefaultTopEFT(false)
	cfg.ProcessTasks, cfg.FanIn = 2000, 9
	cfg.Workers, cfg.CoresPerWorker = 25, 4
	w := workloads.TopEFT(cfg)
	c := sim.NewCluster(w, sim.DefaultParams(), policy.Limits{})
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
