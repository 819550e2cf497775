package core

// Tests for the manager-side lookahead placement engine: speculative
// transfers for queued consumers, the accounting conservation law under
// clean and chaotic runs, the passes<=events invariant with placement on,
// and the PR 7 part-file contract across worker loss mid-prefetch.

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"taskvine/internal/chaos"
	"taskvine/internal/files"
	"taskvine/internal/policy"
	"taskvine/internal/resources"
	"taskvine/internal/trace"
	"taskvine/internal/worker"
)

// placementConfig is the fast-tick, low-threshold spec the tests run under:
// two waiting consumers make a file hot, so small DAGs exercise both the
// gather and the replicate path.
func placementConfig(faults *chaos.Injector) Config {
	return Config{
		TickInterval:        20 * time.Millisecond,
		TransferBackoffBase: 10 * time.Millisecond,
		TransferBackoffMax:  50 * time.Millisecond,
		Faults:              faults,
		Placement: policy.PlacementSpec{
			Enabled:         true,
			FanoutThreshold: 2,
		},
	}
}

// corePlacementTally mirrors the sim test helper over the manager's
// instruments.
type corePlacementTally struct {
	prefetches, prefetchHits int64
	replicas, replicaHits    int64
	wastes, failures         int64
	outstanding              int
}

func tallyCorePlacement(m *Manager) corePlacementTally {
	return corePlacementTally{
		prefetches:   m.vm.PlacementPrefetches.Value(),
		prefetchHits: m.vm.PlacementPrefetchHits.Value(),
		replicas:     m.vm.PlacementReplicas.Value(),
		replicaHits:  m.vm.PlacementReplicaHits.Value(),
		wastes:       m.vm.PlacementWastes.Value(),
		failures:     m.vm.PlacementFailures.Value(),
		outstanding:  m.place.Outstanding(),
	}
}

// checkCoreConservation asserts the placement accounting law. Call only
// after Close: the outstanding count is event-loop state.
func checkCoreConservation(t *testing.T, m *Manager) corePlacementTally {
	t.Helper()
	p := tallyCorePlacement(m)
	issued := p.prefetches + p.replicas
	resolved := p.prefetchHits + p.replicaHits + p.wastes + p.failures + int64(p.outstanding)
	if issued != resolved {
		t.Fatalf("placement accounting leak: issued %d != hits %d+%d + wastes %d + failures %d + outstanding %d",
			issued, p.prefetchHits, p.replicaHits, p.wastes, p.failures, p.outstanding)
	}
	return p
}

// assertNoPartFiles walks a worker's work directory for surviving .part-
// temporaries — the PR 7 contract: unverified bytes never reach (or remain
// near) final cache paths, placement transfers included.
func assertNoPartFiles(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // the dir may vanish with its worker; litter can't hide in a missing dir
		}
		if strings.HasPrefix(d.Name(), ".part-") {
			t.Errorf("part file %s survived in %s", d.Name(), dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// startDirWorker is startChaosWorker with an explicit work directory, so a
// test can inspect the directory after the worker dies.
func startDirWorker(t *testing.T, h *harness, id, dir string, cap resources.R) (cancel context.CancelFunc, done chan struct{}) {
	t.Helper()
	w, err := worker.New(worker.Config{
		ManagerAddr: h.m.Addr(),
		WorkDir:     dir,
		Capacity:    cap,
		ID:          id,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, c := context.WithCancel(context.Background())
	d := make(chan struct{})
	go func() {
		defer close(d)
		w.Run(ctx)
	}()
	t.Cleanup(func() { c(); <-d })
	return c, d
}

// submitSleeps occupies every core with sleep tasks so subsequently
// submitted consumers stay queued — the window lookahead placement fills.
func submitSleeps(t *testing.T, m *Manager, n int, seconds float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := m.Submit(command(fmt.Sprintf("sleep %.2f", seconds))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlacementDisabledIsInert: without the knob the engine is never built,
// no placement transfer is issued, and no counter moves.
func TestPlacementDisabledIsInert(t *testing.T) {
	h := newHarness(t, 1, Config{TickInterval: 20 * time.Millisecond})
	if h.m.place != nil {
		t.Fatal("placement engine built without being enabled")
	}
	buf, err := h.m.Files().DeclareBuffer(make([]byte, 32*1024), files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		spec := command("wc -c < in")
		spec.AddInput(buf.ID, "in")
		if _, err := h.m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if r := waitResult(t, h.m); !r.OK {
			t.Fatalf("task failed: %+v", r)
		}
	}
	if p := tallyCorePlacement(h.m); p != (corePlacementTally{}) {
		t.Fatalf("placement counters moved while disabled: %+v", p)
	}
	for _, ev := range h.m.Trace().Events() {
		if strings.HasPrefix(ev.Detail, "placement:") {
			t.Fatalf("placement-labeled event while disabled: %+v", ev)
		}
	}
}

// TestPlacementPrefetchesForQueuedConsumers: with every core busy and four
// consumers of one buffer queued, the engine must move the buffer to the
// workers ahead of dispatch, and the dispatched consumers must resolve
// those placements as hits.
func TestPlacementPrefetchesForQueuedConsumers(t *testing.T) {
	h := newHarness(t, 0, placementConfig(nil))
	cap := resources.R{Cores: 1, Memory: 4 * resources.GB, Disk: resources.GB}
	startChaosWorker(t, h, "pw0", cap, nil)
	startChaosWorker(t, h, "pw1", cap, nil)
	waitWorkers(t, h.m, 2)

	submitSleeps(t, h.m, 2, 0.7)
	buf, err := h.m.Files().DeclareBuffer(make([]byte, 256*1024), files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		spec := command("wc -c < in")
		spec.AddInput(buf.ID, "in")
		if _, err := h.m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if r := waitResult(t, h.m); !r.OK {
			t.Fatalf("task failed: %+v", r)
		}
	}
	h.m.Close()
	p := checkCoreConservation(t, h.m)
	if p.prefetches+p.replicas == 0 {
		t.Fatal("no placement transfer issued for queued consumers")
	}
	if p.prefetchHits+p.replicaHits == 0 {
		t.Fatal("no dispatched consumer hit a placed input")
	}
	if p.outstanding != 0 {
		t.Fatalf("outstanding = %d after Close; flush must drain records", p.outstanding)
	}
	labeled := 0
	for _, ev := range h.m.Trace().Events() {
		if ev.Kind == trace.TransferStart && strings.HasPrefix(ev.Detail, "placement:") {
			labeled++
		}
	}
	if int64(labeled) != p.prefetches+p.replicas {
		t.Fatalf("%d placement-labeled TransferStart events, counters say %d",
			labeled, p.prefetches+p.replicas)
	}
}

// TestPlacementPassesWithinEvents: placement must ride existing scheduling
// passes, never add its own — the incremental scheduler's passes<=events
// invariant holds with the engine on.
func TestPlacementPassesWithinEvents(t *testing.T) {
	h := newHarness(t, 2, placementConfig(nil))
	buf, err := h.m.Files().DeclareBuffer(make([]byte, 64*1024), files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		spec := command("wc -c < in")
		spec.AddInput(buf.ID, "in")
		if _, err := h.m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if r := waitResult(t, h.m); !r.OK {
			t.Fatalf("task failed: %+v", r)
		}
	}
	d := h.m.Debug()
	if d.SchedulePasses > d.EventsHandled {
		t.Fatalf("passes %d > events %d: placement added scheduling passes",
			d.SchedulePasses, d.EventsHandled)
	}
}

// TestChaosPlacementWorkerLossConservation kills a worker while placement
// transfers are landing on it, under injected transfer failures: the
// workflow still completes on the survivor, the accounting law closes
// (losses split into wastes and failures, never leaks), and no worker
// directory retains a .part- temporary at any path.
func TestChaosPlacementWorkerLossConservation(t *testing.T) {
	inj := chaos.New(chaosSeed(t)).
		Add(chaos.Rule{Point: chaos.Transfer, Action: chaos.Fail, Count: 2})
	h := newHarness(t, 0, placementConfig(inj))
	cap := resources.R{Cores: 1, Memory: 4 * resources.GB, Disk: resources.GB}

	dirA, dirB := t.TempDir(), t.TempDir()
	startDirWorker(t, h, "ca", dirA, cap)
	cancelB, doneB := startDirWorker(t, h, "cb", dirB, cap)
	waitWorkers(t, h.m, 2)

	submitSleeps(t, h.m, 2, 1.5)
	buf, err := h.m.Files().DeclareBuffer(make([]byte, 256*1024), files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		spec := command("wc -c < in")
		spec.AddInput(buf.ID, "in")
		if _, err := h.m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	// Give the lookahead passes time to issue and land placements on both
	// workers, then kill cb mid-window: its records must resolve as wastes
	// (landed) or failures (in flight), never linger.
	time.Sleep(600 * time.Millisecond)
	cancelB()
	<-doneB

	for i := 0; i < 6; i++ {
		if r := waitResult(t, h.m); !r.OK {
			t.Fatalf("task failed: %+v", r)
		}
	}
	h.m.Close()
	p := checkCoreConservation(t, h.m)
	if p.prefetches+p.replicas == 0 {
		t.Fatal("no placement transfer issued; scenario is vacuous")
	}
	if p.outstanding != 0 {
		t.Fatalf("outstanding = %d after Close", p.outstanding)
	}
	assertNoPartFiles(t, dirA)
	assertNoPartFiles(t, dirB)
}
