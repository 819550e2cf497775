package core

// Chaos and failure-path regression tests: seeded fault injection drives the
// real manager/worker stack through transfer failures, disk-full workers,
// worker crashes, and lost replicas, asserting that the hardened recovery
// paths (transfer retry/backoff, replica repair, recovery re-execution,
// library redeployment, fetch restart) actually converge.

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"taskvine/internal/chaos"
	"taskvine/internal/files"
	"taskvine/internal/protocol"
	"taskvine/internal/resources"
	"taskvine/internal/sched"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
	"taskvine/internal/worker"
)

// chaosSeed returns the seed for the chaos suite. CI runs the suite under
// several fixed seeds via VINE_CHAOS_SEED; locally it defaults to 1.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("VINE_CHAOS_SEED")
	if s == "" {
		return 1
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad VINE_CHAOS_SEED %q: %v", s, err)
	}
	return n
}

// countKind tallies trace events of one kind, optionally filtered by file.
func countKind(m *Manager, k trace.Kind, file string) int {
	n := 0
	for _, e := range m.Trace().Events() {
		if e.Kind == k && (file == "" || e.File == file) {
			n++
		}
	}
	return n
}

// readyHolders returns the workers holding a ready replica of the file,
// sorted, read through the event loop that owns the replica table.
func readyHolders(m *Manager, fileID string) []string {
	for _, fr := range m.Debug().Replicas {
		if fr.File == fileID {
			return fr.Ready
		}
	}
	return nil
}

// startChaosWorker launches a worker with its own cancel so tests can kill
// it independently of the harness workers.
func startChaosWorker(t *testing.T, h *harness, id string, cap resources.R, faults *chaos.Injector) (cancel context.CancelFunc, done chan struct{}) {
	t.Helper()
	w, err := worker.New(worker.Config{
		ManagerAddr: h.m.Addr(),
		WorkDir:     t.TempDir(),
		Capacity:    cap,
		ID:          id,
		Faults:      faults,
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

// waitWorkers polls until the manager sees n live workers.
func waitWorkers(t *testing.T, m *Manager, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(m.Status().Workers) != n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d live workers (have %d)", n, len(m.Status().Workers))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosTransferRetryBackoff injects two transfer failures at the
// supervisor and checks that retries are accounted at the transfer level —
// the task completes with its MaxRetries budget (zero) untouched.
func TestChaosTransferRetryBackoff(t *testing.T) {
	inj := chaos.New(chaosSeed(t)).Add(chaos.Rule{Point: chaos.Transfer, Action: chaos.Fail, Count: 2})
	h := newHarness(t, 1, Config{
		TickInterval: 20 * time.Millisecond,
		Faults:       inj,
	})
	buf, err := h.m.Files().DeclareBuffer(make([]byte, 64*1024), files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	spec := command("wc -c < in")
	spec.AddInput(buf.ID, "in")
	if _, err := h.m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	r := waitResult(t, h.m)
	if !r.OK {
		t.Fatalf("task failed despite transfer retries: %+v", r)
	}
	if got := countKind(h.m, trace.TransferRetry, buf.ID); got != 2 {
		t.Fatalf("TransferRetry events = %d, want 2", got)
	}
	if got := countKind(h.m, trace.TransferFailed, buf.ID); got != 2 {
		t.Fatalf("TransferFailed events = %d, want 2", got)
	}
	if got := countKind(h.m, trace.TaskFailed, ""); got != 0 {
		t.Fatalf("TaskFailed events = %d; transfer failures must not consume task retries", got)
	}
}

// TestChaosTransferRetryLimitAbandonsPlacement drives a placement past its
// retry limit: with one injected failure more than the limit allows, the
// last failure abandons the placement (no TransferRetry event of its own)
// and requeues the task without consuming its retry budget.
func TestChaosTransferRetryLimitAbandonsPlacement(t *testing.T) {
	failures := sched.TransferRetryLimit + 1
	inj := chaos.New(chaosSeed(t)).Add(chaos.Rule{Point: chaos.Transfer, Action: chaos.Fail, Count: failures})
	h := newHarness(t, 2, Config{
		TickInterval: 20 * time.Millisecond,
		Faults:       inj,
	})
	buf, err := h.m.Files().DeclareBuffer(make([]byte, 32*1024), files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	spec := command("wc -c < in")
	spec.AddInput(buf.ID, "in")
	if _, err := h.m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	r := waitResult(t, h.m)
	if !r.OK {
		t.Fatalf("task failed: %+v", r)
	}
	// One backed-off retry per failure up to the limit, then abandonment.
	if got := countKind(h.m, trace.TransferRetry, buf.ID); got != sched.TransferRetryLimit {
		t.Fatalf("TransferRetry events = %d, want %d (the last failure must abandon, not retry)", got, sched.TransferRetryLimit)
	}
	if got := countKind(h.m, trace.TransferFailed, buf.ID); got != failures {
		t.Fatalf("TransferFailed events = %d, want %d", got, failures)
	}
}

// TestChaosWorkerCrashAtTaskStart crashes the worker the moment it starts a
// task. With MaxRetries=0 the completion on the surviving worker proves that
// a crash-induced requeue consumes no task retry budget.
func TestChaosWorkerCrashAtTaskStart(t *testing.T) {
	inj := chaos.New(chaosSeed(t)).Add(chaos.Rule{Point: chaos.TaskRun, Action: chaos.Crash, Count: 1})
	h := newHarness(t, 0, Config{TickInterval: 20 * time.Millisecond})
	// The crashy worker is alone, so it must receive the dispatch and die.
	startChaosWorker(t, h, "crashy", resources.R{Cores: 4, Memory: 4 * resources.GB, Disk: resources.GB}, inj)
	waitWorkers(t, h.m, 1)
	if _, err := h.m.Submit(command("echo survived")); err != nil {
		t.Fatal(err)
	}
	// Once the crash lands the manager has zero workers; a rescue worker
	// then picks the requeued task up.
	waitWorkers(t, h.m, 0)
	startChaosWorker(t, h, "rescue", resources.R{Cores: 4, Memory: 4 * resources.GB, Disk: resources.GB}, nil)
	r := waitResult(t, h.m)
	if !r.OK || !strings.Contains(string(r.Output), "survived") {
		t.Fatalf("task did not survive injected crash: %+v", r)
	}
	if r.Worker == "crashy" {
		t.Fatalf("result attributed to the crashed worker")
	}
	if inj.Fired(chaos.TaskRun) != 1 {
		t.Fatalf("crash fault fired %d times, want 1", inj.Fired(chaos.TaskRun))
	}
}

// TestChaosDiskFullOnCacheInsert makes the only worker reject its first
// cache insert (injected ENOSPC). The failed cache-update must flow through
// the transfer supervisor's retry accounting and the re-issued transfer must
// land.
func TestChaosDiskFullOnCacheInsert(t *testing.T) {
	inj := chaos.New(chaosSeed(t)).Add(chaos.Rule{Point: chaos.CacheInsert, Action: chaos.Fail, Count: 1})
	h := newHarness(t, 0, Config{TickInterval: 20 * time.Millisecond})
	startChaosWorker(t, h, "tight-disk", resources.R{Cores: 4, Memory: 4 * resources.GB, Disk: resources.GB}, inj)
	waitWorkers(t, h.m, 1)
	buf, err := h.m.Files().DeclareBuffer([]byte("payload that must eventually land"), files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	spec := command("cat in")
	spec.AddInput(buf.ID, "in")
	if _, err := h.m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	r := waitResult(t, h.m)
	if !r.OK {
		t.Fatalf("task failed after disk-full injection: %+v", r)
	}
	if got := countKind(h.m, trace.TransferRetry, buf.ID); got < 1 {
		t.Fatalf("TransferRetry events = %d, want >= 1", got)
	}
}

// TestRecoveryReexecutesLostTempProducer kills the worker holding the only
// replica of a temp while its consumer runs there: workerGone must requeue
// the consumer AND eagerly re-execute the temp's completed producer on the
// survivor (satellite: workerGone replica accounting).
func TestRecoveryReexecutesLostTempProducer(t *testing.T) {
	h := newHarness(t, 0, Config{TickInterval: 20 * time.Millisecond})
	cap := resources.R{Cores: 4, Memory: 4 * resources.GB, Disk: resources.GB}
	cancelA, doneA := startChaosWorker(t, h, "ra", cap, nil)
	cancelB, doneB := startChaosWorker(t, h, "rb", cap, nil)
	waitWorkers(t, h.m, 2)

	temp := h.m.Files().DeclareTemp()
	prod := command("echo payload > out")
	prod.AddOutput(temp.ID, "out")
	if _, err := h.m.Submit(prod); err != nil {
		t.Fatal(err)
	}
	r1 := waitResult(t, h.m)
	if !r1.OK {
		t.Fatalf("producer failed: %+v", r1)
	}

	cons := command("sleep 2; cat in")
	cons.AddInput(temp.ID, "in")
	consID, err := h.m.Submit(cons)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the consumer to start on the temp's holder, then kill that
	// worker — taking the temp's only replica with it.
	deadline := time.Now().Add(10 * time.Second)
	for countKind(h.m, trace.TaskStart, "") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("consumer never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	switch r1.Worker {
	case "ra":
		cancelA()
		<-doneA
	case "rb":
		cancelB()
		<-doneB
	default:
		t.Fatalf("producer ran on unexpected worker %s", r1.Worker)
	}

	r2 := waitResult(t, h.m)
	if r2.TaskID != consID || !r2.OK || !strings.Contains(string(r2.Output), "payload") {
		t.Fatalf("consumer after recovery = %+v output=%q", r2, r2.Output)
	}
	if r2.Worker == r1.Worker {
		t.Fatalf("consumer completed on the killed worker %s", r2.Worker)
	}
	if got := countKind(h.m, trace.RecoveryStart, temp.ID); got != 1 {
		t.Fatalf("RecoveryStart events = %d, want 1", got)
	}
}

// TestReplicaRepairAfterHolderLoss sets a replication goal, kills one
// holder, and checks the reconcile pass tops the file back up on the
// survivors, with a ReplicaLost event marking the dip.
func TestReplicaRepairAfterHolderLoss(t *testing.T) {
	h := newHarness(t, 0, Config{TickInterval: 20 * time.Millisecond})
	cap := resources.R{Cores: 4, Memory: 4 * resources.GB, Disk: resources.GB}
	cancels := map[string]context.CancelFunc{}
	dones := map[string]chan struct{}{}
	for _, id := range []string{"p0", "p1", "p2"} {
		c, d := startChaosWorker(t, h, id, cap, nil)
		cancels[id], dones[id] = c, d
	}
	waitWorkers(t, h.m, 3)

	buf, err := h.m.Files().DeclareBuffer(make([]byte, 128*1024), files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.m.ReplicateFile(buf.ID, 2); err != nil {
		t.Fatal(err)
	}
	waitReplicas := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for len(readyHolders(h.m, buf.ID)) < n {
			if time.Now().After(deadline) {
				t.Fatalf("replicas = %d, want >= %d", len(readyHolders(h.m, buf.ID)), n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitReplicas(2)

	victim := readyHolders(h.m, buf.ID)[0]
	cancels[victim]()
	<-dones[victim]
	// Wait for the manager to register the departure (so the later replica
	// count is the repaired one, not the stale pre-departure one).
	deadline := time.Now().Add(10 * time.Second)
	for countKind(h.m, trace.WorkerLeft, "") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("victim departure never observed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitReplicas(2)
	if got := countKind(h.m, trace.ReplicaLost, buf.ID); got < 1 {
		t.Fatalf("ReplicaLost events = %d, want >= 1", got)
	}
	for _, holder := range readyHolders(h.m, buf.ID) {
		if holder == victim {
			t.Fatalf("dead worker %s still listed as a holder", victim)
		}
	}
}

// TestMaxRetriesContract pins the retry semantics documented in taskspec:
// MaxRetries = N means exactly N+1 executions of a task that always fails.
func TestMaxRetriesContract(t *testing.T) {
	h := newHarness(t, 1, Config{TickInterval: 20 * time.Millisecond})
	for _, n := range []int{0, 1, 2} {
		counter := fmt.Sprintf("%s/count", t.TempDir())
		spec := command(fmt.Sprintf("echo x >> %s; exit 3", counter))
		spec.MaxRetries = n
		if _, err := h.m.Submit(spec); err != nil {
			t.Fatal(err)
		}
		r := waitResult(t, h.m)
		if r.OK || r.ExitCode != 3 {
			t.Fatalf("MaxRetries=%d: result = %+v", n, r)
		}
		data, err := os.ReadFile(counter)
		if err != nil {
			t.Fatalf("MaxRetries=%d: %v", n, err)
		}
		if got := strings.Count(string(data), "x"); got != n+1 {
			t.Fatalf("MaxRetries=%d: %d executions, want exactly %d", n, got, n+1)
		}
	}
}

// fakeHolder registers a scripted worker that announces a cached replica and
// then follows the test's script for TypeGet requests.
type fakeHolder struct {
	nc   net.Conn
	conn *protocol.Conn
}

func announceHolder(t *testing.T, m *Manager, id, fileID string, content []byte) *fakeHolder {
	t.Helper()
	nc, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeHolder{nc: nc, conn: protocol.NewConn(nc)}
	t.Cleanup(func() { nc.Close() })
	if err := f.conn.Send(&protocol.Message{
		Type: protocol.TypeRegister, WorkerID: id,
		Capacity: &resources.R{Cores: 4, Memory: resources.GB, Disk: resources.GB},
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.conn.Send(&protocol.Message{
		Type: protocol.TypeCacheUpdate, WorkerID: id, CacheName: fileID,
		Size: int64(len(content)), Status: protocol.StatusOK,
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

// awaitGet blocks until the manager asks this holder for the file.
func (f *fakeHolder) awaitGet(t *testing.T, fileID string) {
	t.Helper()
	for {
		m, _, err := f.conn.Recv()
		if err != nil {
			t.Fatalf("holder lost manager connection: %v", err)
		}
		if m.Type == protocol.TypeGet && m.CacheName == fileID {
			return
		}
	}
}

// TestFetchFileRestartsOnHolderLoss covers the manager's in-flight fetch
// recovery (satellite: FetchFile during worker loss): the first holder dies
// after receiving the get request, and the fetch must restart against the
// second holder instead of hanging.
func TestFetchFileRestartsOnHolderLoss(t *testing.T) {
	h := newHarness(t, 0, Config{TickInterval: 20 * time.Millisecond})
	temp := h.m.Files().DeclareTemp()
	content := []byte("replica payload")
	a := announceHolder(t, h.m, "fh-a", temp.ID, content)
	b := announceHolder(t, h.m, "fh-b", temp.ID, content)
	deadline := time.Now().Add(10 * time.Second)
	for len(readyHolders(h.m, temp.ID)) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("replicas never announced")
		}
		time.Sleep(10 * time.Millisecond)
	}

	type fetchOut struct {
		data []byte
		err  error
	}
	out := make(chan fetchOut, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		data, err := h.m.FetchFile(ctx, temp.ID)
		out <- fetchOut{data, err}
	}()

	// Holders are tried in sorted order: fh-a receives the request and dies
	// without answering.
	a.awaitGet(t, temp.ID)
	a.nc.Close()
	// The restarted fetch lands on fh-b, which serves it.
	b.awaitGet(t, temp.ID)
	if err := b.conn.SendPayload(&protocol.Message{
		Type: protocol.TypeData, CacheName: temp.ID, Size: int64(len(content)),
	}, strings.NewReader(string(content))); err != nil {
		t.Fatal(err)
	}
	r := <-out
	if r.err != nil || string(r.data) != string(content) {
		t.Fatalf("fetch after holder loss = %q err=%v", r.data, r.err)
	}
}

// TestFetchFileFailsWhenLastHolderDies: the restarted fetch finds no
// surviving source and must resolve with an error, not hang its waiter.
func TestFetchFileFailsWhenLastHolderDies(t *testing.T) {
	h := newHarness(t, 0, Config{TickInterval: 20 * time.Millisecond})
	temp := h.m.Files().DeclareTemp()
	a := announceHolder(t, h.m, "fh-only", temp.ID, []byte("doomed"))
	deadline := time.Now().Add(10 * time.Second)
	for len(readyHolders(h.m, temp.ID)) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("replica never announced")
		}
		time.Sleep(10 * time.Millisecond)
	}
	errCh := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_, err := h.m.FetchFile(ctx, temp.ID)
		errCh <- err
	}()
	a.awaitGet(t, temp.ID)
	a.nc.Close()
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "no replica") {
		t.Fatalf("fetch with no surviving holder: err = %v, want 'no replica'", err)
	}
}

// TestLibraryRedeployedAfterWorkerLoss kills the only worker running a
// library instance and checks the accounting recovers: a replacement worker
// gets a fresh deployment and serves invocations (satellite: library
// accounting on worker loss).
func TestLibraryRedeployedAfterWorkerLoss(t *testing.T) {
	h := newHarness(t, 0, Config{TickInterval: 20 * time.Millisecond})
	cap := resources.R{Cores: 4, Memory: 4 * resources.GB, Disk: resources.GB}
	startLibWorker := func(id string) (context.CancelFunc, chan struct{}) {
		w, err := worker.New(worker.Config{
			ManagerAddr: h.m.Addr(), WorkDir: t.TempDir(), Capacity: cap,
			ID: id, Libraries: doubleLibrary(),
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
		return cancel, done
	}
	cancelA, doneA := startLibWorker("lib-a")
	h.m.InstallLibrary("math", resources.R{Cores: 1})
	waitLibraryReady(t, h.m)

	cancelA()
	<-doneA
	startLibWorker("lib-b")
	// A second LibraryReady marks the redeployment on the newcomer.
	deadline := time.Now().Add(10 * time.Second)
	for countKind(h.m, trace.LibraryReady, "") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("library never redeployed after worker loss")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := h.m.Invoke("math", "double", []byte("xy")); err != nil {
		t.Fatal(err)
	}
	r := waitResult(t, h.m)
	if !r.OK || string(r.Output) != "xyxy" {
		t.Fatalf("invoke after redeploy = %+v output=%q", r, r.Output)
	}
	if r.Worker != "lib-b" {
		t.Fatalf("invocation routed to %s, want lib-b", r.Worker)
	}
}

// TestLibraryDeploysOnceResourcesFree: a deployment refused for lack of
// resources is not lost — the reconcile pass deploys it when the blocking
// task finishes.
func TestLibraryDeploysOnceResourcesFree(t *testing.T) {
	h := newHarness(t, 0, Config{TickInterval: 20 * time.Millisecond})
	w, err := worker.New(worker.Config{
		ManagerAddr: h.m.Addr(), WorkDir: t.TempDir(),
		Capacity: resources.R{Cores: 1, Memory: resources.GB, Disk: resources.GB},
		ID:       "one-core", Libraries: doubleLibrary(),
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
	waitWorkers(t, h.m, 1)

	// Occupy the only core, then install: the deployment must wait.
	if _, err := h.m.Submit(command("sleep 0.5; echo held")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for countKind(h.m, trace.TaskStart, "") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocking task never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.m.InstallLibrary("math", resources.R{Cores: 1})
	r := waitResult(t, h.m)
	if !r.OK {
		t.Fatalf("blocking task failed: %+v", r)
	}
	waitLibraryReady(t, h.m)
	if _, err := h.m.Invoke("math", "double", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	r = waitResult(t, h.m)
	if !r.OK || string(r.Output) != "okok" {
		t.Fatalf("invoke = %+v output=%q", r, r.Output)
	}
}

// startResettingLibWorker registers a scripted worker that hosts the "math"
// library: it acknowledges library deployments and answers invocations of
// "double" until it has answered answer of them, then resets its socket
// with calls still in flight. The returned channel closes once it has.
func startResettingLibWorker(t *testing.T, m *Manager, id string, answer int) <-chan struct{} {
	t.Helper()
	nc, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := protocol.NewConn(nc)
	t.Cleanup(func() { conn.Close() })
	if err := conn.Send(&protocol.Message{
		Type: protocol.TypeRegister, WorkerID: id,
		Capacity: &resources.R{Cores: 4, Memory: resources.GB, Disk: resources.GB},
	}); err != nil {
		t.Fatal(err)
	}
	reset := make(chan struct{})
	go func() {
		defer close(reset)
		answered := 0
		for {
			msg, _, err := conn.Recv()
			if err != nil {
				return
			}
			switch {
			case msg.Type == protocol.TypeTask && msg.Spec != nil && msg.Spec.Kind == taskspec.KindLibrary:
				conn.Send(&protocol.Message{Type: protocol.TypeComplete, TaskID: msg.TaskID, Status: "library-ready"})
			case msg.Type == protocol.TypeInvoke && answered < answer:
				args := msg.Spec.Args
				conn.Send(&protocol.Message{
					Type: protocol.TypeComplete, TaskID: msg.TaskID, Status: protocol.StatusOK,
					Result: append(append([]byte(nil), args...), args...),
				})
				answered++
			case msg.Type == protocol.TypeInvoke:
				// A zero linger turns the close into a reset, which also
				// discards answers still in the kernel's send buffer.
				nc.(*net.TCPConn).SetLinger(0)
				conn.Close()
				return
			}
		}
	}()
	return reset
}

// TestChaosInvokeBurstSurvivesSocketReset breaks a worker's socket in the
// middle of a burst of invocations. Every call must reach exactly one
// terminal result, the lost ones through the workerGone requeue onto the
// surviving instance, and every send the manager saw fail must be counted.
func TestChaosInvokeBurstSurvivesSocketReset(t *testing.T) {
	const calls = 256
	answer := 16 + int(chaosSeed(t)*37%128)
	var failedSends atomic.Int64
	h := newHarness(t, 0, Config{
		TickInterval: 20 * time.Millisecond,
		Logger: log.New(lineFunc(func(line string) {
			if strings.Contains(line, "invoking math.double") || strings.Contains(line, "dispatching task") {
				failedSends.Add(1)
			}
		}), "", 0),
	})
	h.m.InstallLibrary("math", resources.R{Cores: 1})
	reset := startResettingLibWorker(t, h.m, "resetting", answer)
	waitLibraryReady(t, h.m)
	startLibWorker(t, h.m, "survivor")
	deadline := time.Now().Add(10 * time.Second)
	for countKind(h.m, trace.LibraryReady, "") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("survivor's library never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ids := make(map[int]string, calls)
	for i := 0; i < calls; i++ {
		arg := strconv.Itoa(i)
		id, err := h.m.Invoke("math", "double", []byte(arg))
		if err != nil {
			t.Fatal(err)
		}
		ids[id] = arg + arg
	}
	seen := make(map[int]bool, calls)
	for len(seen) < calls {
		r := waitResult(t, h.m)
		want, ok := ids[r.TaskID]
		switch {
		case !ok:
			t.Fatalf("result for unknown task %d", r.TaskID)
		case seen[r.TaskID]:
			t.Fatalf("task %d delivered twice", r.TaskID)
		case !r.OK || string(r.Output) != want:
			t.Fatalf("task %d = %+v output=%q, want %q", r.TaskID, r, r.Output, want)
		}
		seen[r.TaskID] = true
	}
	select {
	case <-reset:
	default:
		t.Fatal("scripted worker never reset its socket")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if extra, err := h.m.Wait(ctx); err == nil {
		t.Fatalf("extra result after all %d calls: %+v", calls, extra)
	}
	counted := h.m.vm.SendErrors.With("invoke").Value() + h.m.vm.SendErrors.With("task").Value()
	if counted != failedSends.Load() {
		t.Fatalf("vine_send_errors_total counted %d failed sends, the log reports %d", counted, failedSends.Load())
	}
	t.Logf("seed %d: reset after %d answers; %d sends failed on the broken link", chaosSeed(t), answer, counted)
}

// lineFunc adapts a per-line callback to the io.Writer a log.Logger wants.
type lineFunc func(string)

func (f lineFunc) Write(p []byte) (int, error) {
	f(string(p))
	return len(p), nil
}
