package core

import (
	"fmt"
	"testing"

	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
)

// benchManager builds an event-loop-less manager holding a saturated
// cluster of busy workers, a deep waiting queue, and a configurable pile of
// archived done tasks — the state of a long high-throughput run.
func benchManager(b *testing.B, workers, waiting, done int) *Manager {
	b.Helper()
	m := newManagerState(Config{})
	for i := 0; i < workers; i++ {
		w := &workerConn{
			id:        fmt.Sprintf("w%03d", i),
			capacity:  resources.R{Cores: 8},
			pool:      resources.NewPool(resources.R{Cores: 8}),
			running:   make(map[int]bool),
			joinOrder: i,
			libsReady: make(map[string]bool),
		}
		if !w.pool.Alloc(resources.R{Cores: 8}) {
			b.Fatal("could not saturate bench worker")
		}
		m.join(w)
	}
	mkTask := func() (int, *taskState) {
		m.nextID++
		t := m.track(m.nextID, &taskspec.Spec{ID: m.nextID, Command: "true", Resources: resources.R{Cores: 1}})
		return m.nextID, t
	}
	for i := 0; i < waiting; i++ {
		id, t := mkTask()
		m.sched.Submit(id, &t.Task)
	}
	for i := 0; i < done; i++ {
		id, t := mkTask()
		m.sched.SetState(id, &t.Task, taskspec.StateRunning)
		m.sched.SetState(id, &t.Task, taskspec.StateDone)
		t.notified = true
		m.archive(id, t)
	}
	return m
}

// BenchmarkSchedulePass measures one full (tick-forced) scheduling pass
// over 10k waiting tasks and 100 saturated workers while the population of
// completed tasks grows 10× and 100×. The incremental scheduler's pass cost
// must stay flat: done tasks are archived out of the hot map, gauges come
// from counters, and the free-cores shortcut skips the waiting walk when no
// assignment can succeed — O(changed), not O(everything).
func BenchmarkSchedulePass(b *testing.B) {
	for _, done := range []int{0, 10_000, 100_000} {
		b.Run(fmt.Sprintf("waiting=10k/done=%d", done), func(b *testing.B) {
			m := benchManager(b, 100, 10_000, done)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.reconcile = true
				m.schedule()
			}
		})
	}
}
