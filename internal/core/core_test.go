package core

// Unit and integration tests for the manager, driving it with real workers
// over loopback TCP (the worker package provides the mechanism side).

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"taskvine/internal/files"
	"taskvine/internal/httpsource"
	"taskvine/internal/policy"
	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
	"taskvine/internal/worker"
)

type harness struct {
	m       *Manager
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	workers []*worker.Worker
}

func newHarness(t *testing.T, nWorkers int, cfg Config) *harness {
	t.Helper()
	if cfg.Head == nil {
		cfg.Head = httpsource.Head
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{m: m}
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	for i := 0; i < nWorkers; i++ {
		h.addWorker(t, ctx, i, t.TempDir())
	}
	t.Cleanup(func() {
		m.Close()
		cancel()
		h.wg.Wait()
	})
	return h
}

func (h *harness) addWorker(t *testing.T, ctx context.Context, i int, dir string) *worker.Worker {
	t.Helper()
	w, err := worker.New(worker.Config{
		ManagerAddr: h.m.Addr(),
		WorkDir:     dir,
		Capacity:    resources.R{Cores: 4, Memory: 4 * resources.GB, Disk: resources.GB},
		ID:          fmt.Sprintf("w%d", i),
	})
	if err != nil {
		t.Fatal(err)
	}
	h.workers = append(h.workers, w)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		w.Run(ctx)
	}()
	return w
}

func command(cmd string) *taskspec.Spec {
	return &taskspec.Spec{Kind: taskspec.KindCommand, Command: cmd}
}

func waitResult(t *testing.T, m *Manager) *Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r, err := m.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSubmitRejectsUndeclaredFiles(t *testing.T) {
	h := newHarness(t, 0, Config{})
	spec := command("echo hi")
	spec.AddInput("file-nonexistent", "data")
	if _, err := h.m.Submit(spec); err == nil {
		t.Fatal("undeclared input accepted")
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	h := newHarness(t, 0, Config{})
	if _, err := h.m.Submit(command("  ")); err == nil {
		t.Fatal("empty command accepted")
	}
}

func TestSubmitAssignsSequentialIDs(t *testing.T) {
	h := newHarness(t, 0, Config{})
	a, err := h.m.Submit(command("true"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.m.Submit(command("true"))
	if err != nil {
		t.Fatal(err)
	}
	if b <= a {
		t.Fatalf("ids not increasing: %d then %d", a, b)
	}
}

func TestTaskWaitsForWorker(t *testing.T) {
	// Submit with no workers; the task must run once a worker joins.
	h := newHarness(t, 0, Config{})
	if _, err := h.m.Submit(command("echo late worker")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.Sleep(50 * time.Millisecond)
	h.addWorker(t, ctx, 99, t.TempDir())
	r := waitResult(t, h.m)
	if !r.OK || !strings.Contains(string(r.Output), "late worker") {
		t.Fatalf("result = %+v", r)
	}
}

func TestDefaultResourcesApplied(t *testing.T) {
	h := newHarness(t, 1, Config{DefaultTaskResources: resources.R{Cores: 2}})
	if _, err := h.m.Submit(command(`echo "cores=$CORES"`)); err != nil {
		t.Fatal(err)
	}
	r := waitResult(t, h.m)
	if !strings.Contains(string(r.Output), "cores=2") {
		t.Fatalf("output = %q", r.Output)
	}
}

func TestPackingRespectsWorkerCapacity(t *testing.T) {
	// 4-core worker, 4 one-core sleeps: all run concurrently; a fifth
	// waits. Total time ~1 sleep period x2, not x5.
	h := newHarness(t, 1, Config{})
	for i := 0; i < 5; i++ {
		if _, err := h.m.Submit(command("sleep 0.3; echo done")); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for i := 0; i < 5; i++ {
		r := waitResult(t, h.m)
		if !r.OK {
			t.Fatalf("task failed: %+v", r)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 500*time.Millisecond {
		t.Fatalf("5 tasks on 4 cores finished in %v; packing overcommitted", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("elapsed %v; tasks likely serialized", elapsed)
	}
}

func TestDataLocalityPlacement(t *testing.T) {
	// A big file lands on one worker; a consumer task should be placed
	// there rather than forcing a transfer.
	h := newHarness(t, 2, Config{})
	big, err := h.m.Files().DeclareBuffer(make([]byte, 256*1024), files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	first := command("wc -c < data")
	first.AddInput(big.ID, "data")
	if _, err := h.m.Submit(first); err != nil {
		t.Fatal(err)
	}
	r1 := waitResult(t, h.m)
	if !r1.OK {
		t.Fatalf("first task failed: %+v", r1)
	}
	// More tasks using the same input, submitted one at a time so the
	// data-holding worker always has a free core: each must land where
	// the data already is.
	for i := 0; i < 5; i++ {
		c := command("wc -c < data")
		c.AddInput(big.ID, "data")
		if _, err := h.m.Submit(c); err != nil {
			t.Fatal(err)
		}
		r := waitResult(t, h.m)
		if !r.OK {
			t.Fatalf("task failed: %+v", r)
		}
		if r.Worker != r1.Worker {
			t.Fatalf("task %d placed on %s, data is on %s", r.TaskID, r.Worker, r1.Worker)
		}
	}
}

func TestWorkerLossRequeuesRunningTasks(t *testing.T) {
	h := newHarness(t, 1, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	// A dedicated worker context so we can kill just this worker.
	w2dir := t.TempDir()
	w2, err := worker.New(worker.Config{
		ManagerAddr: h.m.Addr(),
		WorkDir:     w2dir,
		Capacity:    resources.R{Cores: 64, Memory: 4 * resources.GB, Disk: resources.GB},
		ID:          "victim",
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w2.Run(ctx)
	}()
	// Wait for the victim (with far more cores, it attracts the task).
	time.Sleep(100 * time.Millisecond)
	if _, err := h.m.Submit(command("sleep 5; echo survived")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // task dispatched to victim
	cancel()                           // kill the victim mid-task
	<-done
	r := waitResult(t, h.m)
	if !r.OK || !strings.Contains(string(r.Output), "survived") {
		t.Fatalf("task did not survive worker loss: %+v err=%s", r, r.Error)
	}
	if r.Worker == "victim" {
		t.Fatalf("result attributed to dead worker")
	}
}

func TestRetriesExhaustedReportsFailure(t *testing.T) {
	h := newHarness(t, 1, Config{})
	spec := command("exit 7")
	spec.MaxRetries = 2
	if _, err := h.m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	r := waitResult(t, h.m)
	if r.OK || r.ExitCode != 7 {
		t.Fatalf("result = %+v", r)
	}
}

func TestResourceExhaustionRetriesWithLargerAllocation(t *testing.T) {
	// The task writes 2KB but declares a 1KB disk budget. With retries
	// allowed, the manager doubles the allocation and re-runs (§2.1).
	h := newHarness(t, 1, Config{})
	spec := command("head -c 2048 /dev/zero > blob; echo made blob")
	spec.Resources = resources.R{Cores: 1, Disk: 1024}
	spec.MaxRetries = 3
	if _, err := h.m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	r := waitResult(t, h.m)
	if !r.OK {
		t.Fatalf("task failed despite allocation growth: %+v", r)
	}
}

func TestEmptyAndTrace(t *testing.T) {
	h := newHarness(t, 1, Config{})
	if !h.m.Empty() {
		t.Fatal("fresh manager not empty")
	}
	if _, err := h.m.Submit(command("true")); err != nil {
		t.Fatal(err)
	}
	if h.m.Empty() {
		t.Fatal("manager empty with task pending")
	}
	r := waitResult(t, h.m)
	if !r.OK {
		t.Fatalf("task failed: %+v", r)
	}
	if !h.m.Empty() {
		t.Fatal("manager not empty after completion")
	}
	events := h.m.Trace().Events()
	var kinds []trace.Kind
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	hasKind := func(k trace.Kind) bool {
		for _, x := range kinds {
			if x == k {
				return true
			}
		}
		return false
	}
	if !hasKind(trace.WorkerJoined) || !hasKind(trace.TaskStart) || !hasKind(trace.TaskEnd) {
		t.Fatalf("trace missing expected events: %v", kinds)
	}
}

func TestGarbageCollectionOfTaskLifetimeInputs(t *testing.T) {
	h := newHarness(t, 1, Config{})
	buf, err := h.m.Files().DeclareBuffer([]byte("ephemeral"), files.LifetimeTask)
	if err != nil {
		t.Fatal(err)
	}
	spec := command("cat q")
	spec.AddInput(buf.ID, "q")
	if _, err := h.m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	r := waitResult(t, h.m)
	if !r.OK {
		t.Fatalf("task failed: %+v", r)
	}
	// The input's replicas must disappear (unlink sent, table cleaned).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(readyHolders(h.m, buf.ID)) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("task-lifetime input never garbage collected")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestFetchFileErrors(t *testing.T) {
	h := newHarness(t, 1, Config{})
	if _, err := h.m.FetchFile(context.Background(), "unknown-file"); err == nil {
		t.Fatal("unknown file fetched")
	}
	tmp := h.m.Files().DeclareTemp()
	if _, err := h.m.FetchFile(context.Background(), tmp.ID); err == nil {
		t.Fatal("fetch of never-produced temp succeeded")
	}
}

func TestTransferLimitsEnforcedOnWire(t *testing.T) {
	// With ManagerSource limited to 1, puts of distinct buffers to many
	// waiting tasks serialize; the transfer table must never show more
	// than 1 in flight from the manager.
	h := newHarness(t, 2, Config{Limits: policy.Limits{ManagerSource: 1}})
	over := make(chan int, 1)
	go func() {
		max := 0
		for i := 0; i < 200; i++ {
			n := 0
			for _, tr := range h.m.Debug().Transfers {
				if tr.Source == "manager" {
					n++
				}
			}
			if n > max {
				max = n
			}
			time.Sleep(2 * time.Millisecond)
		}
		over <- max
	}()
	for i := 0; i < 8; i++ {
		buf, err := h.m.Files().DeclareBuffer(make([]byte, 128*1024+i), files.LifetimeTask)
		if err != nil {
			t.Fatal(err)
		}
		spec := command("wc -c < in")
		spec.AddInput(buf.ID, "in")
		if _, err := h.m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		r := waitResult(t, h.m)
		if !r.OK {
			t.Fatalf("task failed: %+v", r)
		}
	}
	if max := <-over; max > 1 {
		t.Fatalf("manager source limit violated: %d concurrent", max)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	dest := filepath.Join(dir, "sub", "out.txt")
	if err := writeFileAtomic(dest, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dest)
	if err != nil || string(b) != "v1" {
		t.Fatalf("read = %q err=%v", b, err)
	}
	if err := writeFileAtomic(dest, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(dest)
	if string(b) != "v2" {
		t.Fatalf("overwrite failed: %q", b)
	}
	// No temp litter.
	ents, _ := os.ReadDir(filepath.Dir(dest))
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

func TestManagerLoggerAndSilence(t *testing.T) {
	var buf strings.Builder
	h := newHarness(t, 1, Config{Logger: log.New(&buf, "", 0)})
	if _, err := h.m.Submit(command("true")); err != nil {
		t.Fatal(err)
	}
	waitResult(t, h.m)
	if !strings.Contains(buf.String(), "worker w0 joined") {
		t.Fatalf("log = %q", buf.String())
	}
}

// TestTransferUUIDsUnique: each supervised transfer carries a fresh
// version 4 UUID on the wire.
func TestTransferUUIDsUnique(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}$`)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		id := randomUUID()
		if seen[id] {
			t.Fatal("duplicate transfer UUID")
		}
		if !re.MatchString(id) {
			t.Fatalf("malformed UUID %q", id)
		}
		seen[id] = true
	}
}
