package main

import (
	"math/rand"
	"runtime"
	"time"

	"taskvine/internal/metrics"
	"taskvine/internal/policy"
	"taskvine/internal/sim"
	"taskvine/internal/trace"
	wlgen "taskvine/internal/workloads"
)

// buildTopEFT builds the TopEFT workload of internal/workloads at the
// benchmark's size, then redraws every task's runtime from the seed, with
// the spreads the generator uses, in place of its fixed seed.
func buildTopEFT(seed int64, s sizes) *sim.Workload {
	cfg := wlgen.DefaultTopEFT(false)
	cfg.ProcessTasks, cfg.FanIn = s.SimProcess, s.SimFanIn
	cfg.Workers, cfg.CoresPerWorker = s.SimWorkers, s.SimCores
	w := wlgen.TopEFT(cfg)
	rng := rand.New(rand.NewSource(seed))
	between := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	for _, t := range w.Tasks {
		switch t.Category {
		case "process-data":
			t.Runtime = cfg.ProcessRuntime * between(0.7, 1.3)
		case "process-mc":
			t.Runtime = cfg.ProcessRuntime * between(0.7, 1.3) * cfg.MCRuntimeFactor
		case "accumulate":
			t.Runtime = cfg.AccumulateRuntime * between(0.8, 1.2)
		}
	}
	return w
}

// runSimTopEFT builds and simulates the workload repeatedly until dur has
// passed (at least once) and reports medians over iterations.
func runSimTopEFT(cfg *config, dur time.Duration, traced bool) (*outcome, error) {
	out := newOutcome()
	var probe *runtimeProbe
	if traced {
		probe = startRuntimeProbe()
	}
	var setup, wall, cpu, p50, p90, perSec []float64
	var lastLat []float64
	var tasks int64
	start := time.Now()
	for it := 0; it == 0 || time.Since(start) < dur; it++ {
		// Start every iteration from a collected heap, so the collector's
		// work does not depend on what the previous iteration left behind.
		runtime.GC()
		t0 := time.Now()
		w := buildTopEFT(cfg.seed, cfg.sizes)
		c := sim.NewCluster(w, sim.DefaultParams(), policy.Limits{})
		build := time.Since(t0)

		// Stamp each task's completion in wall time as the simulator
		// reports it; the observer runs on the simulating goroutine.
		var run0 time.Time
		lat := make([]float64, 0, len(w.Tasks))
		c.Trace().Observe(func(e trace.Event) {
			if e.Kind == trace.TaskEnd {
				lat = append(lat, ms(time.Since(run0)))
			}
		})
		cpu0 := cpuTime()
		run0 = time.Now()
		virtual := c.Run()
		elapsed := time.Since(run0)
		cpuUsed := cpuTime() - cpu0

		n := len(w.Tasks)
		out.attempted += int64(n)
		want := n
		if cfg.corrupt {
			want++
		}
		if done := c.CompletedTasks(); done != want {
			out.fail("simulation completed %d of %d tasks", done, want)
		}
		setup = append(setup, build.Seconds())
		wall = append(wall, elapsed.Seconds())
		cpu = append(cpu, ms(cpuUsed)/float64(n))
		perSec = append(perSec, float64(n)/elapsed.Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		tasks += int64(n)
		lastLat = lat
		if traced {
			vm := metrics.ForRegistry(c.Metrics())
			out.layer["sim.schedule_passes"] = float64(vm.SchedulePasses.Value())
			out.layer["sim.trace_events"] = float64(c.Trace().Len())
			out.layer["sim.virtual_makespan_s"] = virtual
			out.layer["trace.events_per_task"] = float64(c.Trace().Len()) / float64(n)
		}
	}
	out.e2e["setup_s"] = median(setup)
	out.e2e["makespan_s"] = median(wall)
	out.e2e["cpu_ms_per_task"] = median(cpu)
	out.e2e["tasks_per_s"] = median(perSec)
	out.e2e["latency_p50_ms"] = median(p50)
	out.e2e["latency_p90_ms"] = median(p90)
	if traced {
		probe.finish(out.layer, tasks)
		tails(out.layer, lastLat)
		out.layer["sim.build_ms"] = median(setup) * 1e3
		out.layer["sim.run_s"] = median(wall)
	}
	return out, nil
}
