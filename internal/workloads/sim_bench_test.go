package workloads

import (
	"fmt"
	"testing"

	"taskvine/internal/policy"
	"taskvine/internal/sim"
)

// BenchmarkSimTopEFT50k runs a full 50k-task TopEFT-shaped simulation —
// 45,000 processing leaves plus their nine-way accumulation tree — on 100
// ramping workers. This is the scale at which the pre-incremental simulator
// spent its time rescanning every task on every pass; with the staging
// index, per-state counters, and the free-core walk cutoff, one run is
// dominated by the event heap instead of the scheduler.
func BenchmarkSimTopEFT50k(b *testing.B) {
	cfg := DefaultTopEFT(false)
	cfg.ProcessTasks = 45_000
	cfg.Workers = 100
	cfg.CoresPerWorker = 4
	tasks := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := TopEFT(cfg)
		c := sim.NewCluster(w, sim.DefaultParams(), policy.DefaultLimits())
		tasks = len(w.Tasks)
		b.StartTimer()
		c.Run()
		if got := c.CompletedTasks(); got != tasks {
			b.Fatalf("completed %d/%d tasks", got, tasks)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/run")
}

// BenchmarkSimTopEFTBenchScale runs the TopEFT the benchmark simulates —
// 2,000 process tasks (2,252 in all) on 25 four-core workers — and reports
// allocations per run: the simulator's steady-state event loop should
// allocate little beyond what the trace itself keeps.
func BenchmarkSimTopEFTBenchScale(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := digestTopEFT()
		c := sim.NewCluster(w, sim.DefaultParams(), policy.Limits{})
		b.StartTimer()
		c.Run()
		if got := c.CompletedTasks(); got != len(w.Tasks) {
			b.Fatalf("completed %d/%d tasks", got, len(w.Tasks))
		}
	}
}

// BenchmarkSimTransferBoundBinary runs a transfer-heavy TopEFT slice —
// large inputs, short tasks — on the default parameters and reports the
// virtual makespan. The name is kept so the recorded baseline still
// matches.
func BenchmarkSimTransferBoundBinary(b *testing.B) {
	cfg := DefaultTopEFT(false)
	cfg.ProcessTasks = 2_000
	cfg.Workers = 50
	cfg.CoresPerWorker = 4
	var makespan float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := TopEFT(cfg)
		c := sim.NewCluster(w, sim.DefaultParams(), policy.DefaultLimits())
		tasks := len(w.Tasks)
		b.StartTimer()
		makespan = c.Run()
		if got := c.CompletedTasks(); got != tasks {
			b.Fatalf("completed %d/%d tasks", got, tasks)
		}
	}
	b.ReportMetric(makespan, "virtual-makespan-s")
}

// BenchmarkSimTopEFTPaperScale runs TopEFT at the paper's task count,
// 27,000 process tasks (30,378 tasks in all), on 1,000 and 5,000 four-core
// workers: the pool sizes the paper's 20K-core claim needs. It reports the
// virtual makespan next to the wall time. One run takes seconds to tens of
// seconds, so run it with -benchtime 1x.
func BenchmarkSimTopEFTPaperScale(b *testing.B) {
	for _, workers := range []int{1_000, 5_000} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := DefaultTopEFT(false)
			cfg.ProcessTasks = 27_000
			cfg.Workers = workers
			cfg.CoresPerWorker = 4
			var makespan float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := TopEFT(cfg)
				c := sim.NewCluster(w, sim.DefaultParams(), policy.DefaultLimits())
				b.StartTimer()
				makespan = c.Run()
				if got := c.CompletedTasks(); got != len(w.Tasks) {
					b.Fatalf("completed %d/%d tasks", got, len(w.Tasks))
				}
			}
			b.ReportMetric(makespan, "virtual-makespan-s")
		})
	}
}
