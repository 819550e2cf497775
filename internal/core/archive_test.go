package core

// Tests for the finished-task archive: only tasks that declared outputs
// stay reachable after delivery, because only they can be re-executed to
// regenerate a lost file; output-less calls leave nothing behind.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"taskvine/internal/resources"
	"taskvine/internal/worker"
)

// startLibWorker runs a real worker hosting the "math" library until the
// test ends.
func startLibWorker(t *testing.T, m *Manager, id string) {
	t.Helper()
	w, err := worker.New(worker.Config{
		ManagerAddr: m.Addr(), WorkDir: t.TempDir(), ID: id,
		Capacity:  resources.R{Cores: 4, Memory: 4 * resources.GB, Disk: resources.GB},
		Libraries: doubleLibrary(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
}

func TestArchiveDropsOutputlessInvokes(t *testing.T) {
	h := newHarness(t, 0, Config{})
	startLibWorker(t, h.m, "w-lib")
	h.m.InstallLibrary("math", resources.R{Cores: 1})
	waitLibraryReady(t, h.m)

	const n = 200
	for i := 0; i < n; i++ {
		if _, err := h.m.Invoke("math", "double", []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if r := waitResult(t, h.m); !r.OK {
			t.Fatalf("invoke failed: %+v", r)
		}
	}
	if got := h.m.Debug().ArchivedTasks; got != 0 {
		t.Fatalf("archive holds %d tasks after %d output-less invokes, want 0", got, n)
	}
	if done := h.m.Status().TasksDone; done != n {
		t.Fatalf("done gauge = %d, want %d: dropping a task must not uncount it", done, n)
	}

	// A task that declared an output is kept: its file may need it again.
	temp := h.m.Files().DeclareTemp()
	prod := command("echo kept > out")
	prod.AddOutput(temp.ID, "out")
	if _, err := h.m.Submit(command("true")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.m.Submit(prod); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if r := waitResult(t, h.m); !r.OK {
			t.Fatalf("command failed: %+v", r)
		}
	}
	if got := h.m.Debug().ArchivedTasks; got != 1 {
		t.Fatalf("archive holds %d tasks, want only the temp producer", got)
	}
}

// TestArchivedProducerReexecutedForLateConsumer loses the only replica of a
// temp before anyone asks for it: the consumer submitted afterwards must
// find the archived producer through the file's producer ID and re-run it.
func TestArchivedProducerReexecutedForLateConsumer(t *testing.T) {
	h := newHarness(t, 0, Config{TickInterval: 20 * time.Millisecond})
	cap := resources.R{Cores: 4, Memory: 4 * resources.GB, Disk: resources.GB}
	cancelA, doneA := startChaosWorker(t, h, "late-a", cap, nil)
	waitWorkers(t, h.m, 1)

	temp := h.m.Files().DeclareTemp()
	prod := command("echo regenerated > out")
	prod.AddOutput(temp.ID, "out")
	prodID, err := h.m.Submit(prod)
	if err != nil {
		t.Fatal(err)
	}
	if r := waitResult(t, h.m); !r.OK {
		t.Fatalf("producer failed: %+v", r)
	}
	if got := h.m.Debug().ArchivedTasks; got != 1 {
		t.Fatalf("archive holds %d tasks, want the producer", got)
	}
	cancelA()
	<-doneA
	waitWorkers(t, h.m, 0)
	startChaosWorker(t, h, "late-b", cap, nil)

	cons := command("cat in")
	cons.AddInput(temp.ID, "in")
	consID, err := h.m.Submit(cons)
	if err != nil {
		t.Fatal(err)
	}
	r := waitResult(t, h.m)
	if r.TaskID != consID || !r.OK || !strings.Contains(string(r.Output), "regenerated") {
		t.Fatalf("consumer = %+v output=%q", r, r.Output)
	}
	if r.Worker != "late-b" {
		t.Fatalf("consumer ran on %s, want late-b", r.Worker)
	}
	// The re-executed producer had already delivered its result once.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if extra, err := h.m.Wait(ctx); err == nil {
		t.Fatalf("unexpected second result %+v (producer %d)", extra, prodID)
	}
}
