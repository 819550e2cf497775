package core

import (
	"io"
	"net"
	"testing"
	"time"

	"taskvine/internal/files"
	"taskvine/internal/protocol"
	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
)

// TestBackoffRefusedTransferStaysOnReplanList: a transfer refused inside
// its retry backoff window leaves the staging plan unsettled, so the task
// stays on the replan list instead of parking (no table mutation will
// signal the window opening), and it dispatches once the window opens and
// the input lands.
func TestBackoffRefusedTransferStaysOnReplanList(t *testing.T) {
	m := newManagerState(Config{})
	ours, theirs := net.Pipe()
	defer ours.Close()
	go func() { _, _ = io.Copy(io.Discard, theirs) }()
	w := &workerConn{
		id: "w0", conn: protocol.NewConn(ours), capacity: resources.R{Cores: 1},
		pool: resources.NewPool(resources.R{Cores: 1}), running: map[int]bool{}, libsReady: map[string]bool{},
	}
	m.join(w)
	f, err := m.reg.DeclareURL("http://example.invalid/in", files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	spec := &taskspec.Spec{Command: "true", Resources: resources.R{Cores: 1}}
	spec.AddInput(f.ID, "in")
	m.nextID++
	id := m.nextID
	ts := m.track(id, spec)
	m.sched.Submit(id, &ts.Task)
	// A failed transfer closes the placement for a backoff window; the
	// manager's clock, moved an hour back, stays inside it.
	m.sched.TransferFailed(m.fh(f.ID), w.h)
	m.start = m.start.Add(time.Hour)

	// Inside the window every pass replans the task: it stays on the replan
	// list, where a parked task would be skipped.
	for pass := 1; pass <= 2; pass++ {
		plans := m.sched.Plans
		m.schedule()
		if ts.State != taskspec.StateStaging || m.sched.Plans != plans+1 || m.trs.Len() != 0 || !m.sched.Dirty() {
			t.Fatalf("pass %d inside the window: state %v, %d plans, %d transfers, dirty %v; want staging, replanned, on the replan list",
				pass, ts.State, m.sched.Plans-plans, m.trs.Len(), m.sched.Dirty())
		}
	}
	m.start = m.start.Add(-2 * time.Hour) // an hour past the window
	m.schedule()
	if m.trs.Len() != 1 {
		t.Fatalf("pass after the window opened started %d transfers, want 1", m.trs.Len())
	}
	// Now the task is parked: a pass with nothing changed skips it.
	plans := m.sched.Plans
	m.schedule()
	if m.sched.Plans != plans {
		t.Fatalf("a pass with the input in flight replanned the task %d times", m.sched.Plans-plans)
	}
	tr := m.trs.All()[0]
	m.handleCacheUpdate(&protocol.Message{
		Type: protocol.TypeCacheUpdate, WorkerID: w.id, CacheName: f.ID,
		TransferID: m.transferUUID(tr), Status: protocol.StatusOK, Size: 1,
	})
	m.schedule()
	if ts.State != taskspec.StateRunning {
		t.Fatalf("after the input landed the task is %v, want running", ts.State)
	}
}
