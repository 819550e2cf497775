package core

import (
	"testing"
	"time"

	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
)

// TestSchedulePassesNeverExceedEvents pins the event-batching invariant: the
// loop drains bursts of queued events into a single scheduling pass, so the
// pass counter can never exceed the event counter.
func TestSchedulePassesNeverExceedEvents(t *testing.T) {
	m, err := NewManager(Config{TickInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// A burst of asynchronous events: each enqueues without waiting, so the
	// loop sees them back-to-back and batches them.
	for i := 0; i < 300; i++ {
		m.InstallLibrary("bench-lib", resources.R{Cores: 1})
	}
	d := m.Debug() // synchronous: ordered after the burst in the event queue
	if d.EventsHandled < 301 {
		t.Fatalf("EventsHandled = %d, want >= 301 (300 installs + debug)", d.EventsHandled)
	}
	if d.SchedulePasses > d.EventsHandled {
		t.Fatalf("invariant violated: %d schedule passes > %d events",
			d.SchedulePasses, d.EventsHandled)
	}
}

// drainQueuedResults empties the result delivery queue and reports how
// many results were waiting. These tests drive manager internals with
// newManagerState, so no deliverLoop goroutine is running to move queued
// results onto m.results.
func drainQueuedResults(m *Manager) int {
	m.resMu.Lock()
	defer m.resMu.Unlock()
	n := len(m.resQ)
	m.resQ = nil
	return n
}

func newBenchTask(m *Manager) (int, *taskState) {
	m.nextID++
	id := m.nextID
	ts := m.track(id, &taskspec.Spec{ID: id, Command: "true", Resources: resources.R{Cores: 1}})
	m.sched.Submit(id, &ts.Task)
	return id, ts
}

// TestRequeueDoneTaskKeepsNotified is the regression test for the requeue
// guard: re-executing a done task for recovery must not deliver its result
// a second time when the re-execution completes.
func TestRequeueDoneTaskKeepsNotified(t *testing.T) {
	m := newManagerState(Config{})
	id, ts := newBenchTask(m)
	m.pendingWk++

	m.sched.SetState(id, &ts.Task, taskspec.StateRunning)
	m.finishTask(id, ts, &Result{TaskID: id, OK: true})
	if got := drainQueuedResults(m); got != 1 {
		t.Fatalf("finishTask queued %d results, want 1", got)
	}
	if !ts.notified {
		t.Fatal("finishTask did not mark the delivered task notified")
	}

	// Recovery re-execution: the done task goes back to waiting...
	m.requeue(id, ts, false)
	if ts.State != taskspec.StateWaiting {
		t.Fatalf("requeued task in state %v, want waiting", ts.State)
	}
	if !ts.notified {
		t.Fatal("requeue of a done task lost the notified mark")
	}
	// ...and its second completion must not notify the application again.
	m.sched.SetState(id, &ts.Task, taskspec.StateRunning)
	m.finishTask(id, ts, &Result{TaskID: id, OK: true})
	if got := drainQueuedResults(m); got != 0 {
		t.Fatal("re-executed done task delivered a second result")
	}
	if m.pendingWk != 0 {
		t.Fatalf("pendingWk = %d after recovery cycle, want 0", m.pendingWk)
	}
}

// TestRequeueGuardReadsPreTransitionState pins the fix for the dead-code
// guard: the "was this task done?" check must observe the state before the
// transition to waiting overwrites it. A done task — even one whose result
// was never delivered — must come back from requeue marked notified.
func TestRequeueGuardReadsPreTransitionState(t *testing.T) {
	m := newManagerState(Config{})
	id, ts := newBenchTask(m)
	m.sched.SetState(id, &ts.Task, taskspec.StateRunning)
	m.sched.SetState(id, &ts.Task, taskspec.StateDone)
	if ts.notified {
		t.Fatal("precondition: task must start unnotified")
	}
	m.requeue(id, ts, false)
	if !ts.notified {
		t.Fatal("requeue failed to mark a requeued done task notified (guard read post-transition state)")
	}
	// A merely staging task, by contrast, keeps notified clear: its first
	// real completion must still reach the application.
	id2, ts2 := newBenchTask(m)
	m.sched.SetState(id2, &ts2.Task, taskspec.StateStaging)
	m.requeue(id2, ts2, false)
	if ts2.notified {
		t.Fatal("requeue of a staging task must not suppress its future result")
	}
}
