package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"taskvine/internal/cache"
	"taskvine/internal/chaos"
	"taskvine/internal/protocol"
	"taskvine/internal/sandbox"
	"taskvine/internal/serverless"
	"taskvine/internal/taskspec"
)

// resultLimit caps the bytes of task output returned inline to the manager.
const resultLimit = 64 * 1024

// startTask launches the execution of a dispatched task. The manager has
// already verified that every input is present in this worker's cache; the
// worker only provides the mechanism.
func (w *Worker) startTask(ctx context.Context, spec *taskspec.Spec) {
	if spec == nil {
		return
	}
	if w.cfg.Faults.At(chaos.TaskRun, w.cfg.ID, "").Action == chaos.Crash {
		// The node "dies" at dispatch: no completion message is ever sent.
		// The manager's liveness check reclaims the task.
		w.crash()
		return
	}
	if !w.pool.Alloc(spec.Resources) {
		// The manager overcommitted us — a policy bug on its side, handled
		// gracefully by returning the task (§2.1).
		w.sendComplete(spec, false, 1, nil, nil, 0, 0,
			fmt.Errorf("resource allocation %v exceeds free %v", spec.Resources, w.pool.Free()))
		return
	}
	tctx, cancel := context.WithCancel(ctx)
	w.mu.Lock()
	w.running[spec.ID] = cancel
	w.mu.Unlock()

	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer cancel()
		w.executeTask(tctx, spec)
	}()
}

// releaseTask returns a task's allocation to the pool. It MUST run before
// the completion message is sent: the manager schedules the next task the
// moment it sees the completion, and that task may arrive immediately.
// (LibraryTasks never release; their instances hold a static allocation for
// the worker's lifetime, §3.4.)
func (w *Worker) releaseTask(spec *taskspec.Spec) {
	w.mu.Lock()
	delete(w.running, spec.ID)
	w.mu.Unlock()
	w.pool.Release(spec.Resources)
}

func (w *Worker) killTask(taskID int) {
	w.mu.Lock()
	cancel := w.running[taskID]
	w.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (w *Worker) sendComplete(spec *taskspec.Spec, release bool, exit int, result []byte,
	outputs []protocol.OutputInfo, stagedMS, runMS int64, err error) {
	w.sendCompleteMeasured(spec, release, exit, result, outputs, stagedMS, runMS, 0, 0, err)
}

// sendCompleteMeasured additionally reports the task's observed resource
// consumption, feeding the manager's per-category statistics.
func (w *Worker) sendCompleteMeasured(spec *taskspec.Spec, release bool, exit int, result []byte,
	outputs []protocol.OutputInfo, stagedMS, runMS, measuredDisk, measuredMemory int64, err error) {
	if release {
		w.releaseTask(spec)
	}
	if w.session != nil && w.session.Err() != nil {
		// The session ended and killed the task with it. Its exit is the
		// worker leaving, not a task failure: the manager requeues the task
		// when it sees the connection drop, and a failure arriving first
		// would end the task instead.
		return
	}
	m := &protocol.Message{
		Type:           protocol.TypeComplete,
		WorkerID:       w.cfg.ID,
		TaskID:         spec.ID,
		ExitCode:       exit,
		Result:         result,
		Outputs:        outputs,
		TimeStagedMS:   stagedMS,
		TimeRunMS:      runMS,
		MeasuredDisk:   measuredDisk,
		MeasuredMemory: measuredMemory,
	}
	if err != nil {
		m.Status = protocol.StatusFailed
		m.Error = err.Error()
	} else {
		m.Status = protocol.StatusOK
	}
	if w.conn != nil {
		w.conn.Send(m)
	}
}

func (w *Worker) executeTask(ctx context.Context, spec *taskspec.Spec) {
	switch spec.Kind {
	case taskspec.KindLibrary:
		w.deployLibrary(ctx, spec)
	case taskspec.KindFunction:
		w.runFunction(ctx, spec)
	default:
		w.runCommandTask(ctx, spec)
	}
}

// runCommandTask executes a Unix command in a private sandbox, then
// extracts declared outputs into the cache.
func (w *Worker) runCommandTask(ctx context.Context, spec *taskspec.Spec) {
	t0 := time.Now()
	// Pin inputs so concurrent cache pressure cannot evict them mid-task,
	// and materialize memory-resident objects: the sandbox links inputs
	// from their on-disk cache paths.
	var pinned []string
	for _, m := range spec.Inputs {
		if err := w.cache.Pin(m.FileID); err != nil {
			w.unpin(pinned)
			w.sendComplete(spec, true, 1, nil, nil, 0, 0,
				fmt.Errorf("input %s missing from cache: %w", m.FileID, err))
			return
		}
		pinned = append(pinned, m.FileID)
		if err := w.cache.Materialize(m.FileID); err != nil {
			w.unpin(pinned)
			w.sendComplete(spec, true, 1, nil, nil, 0, 0,
				fmt.Errorf("materializing input %s: %w", m.FileID, err))
			return
		}
	}
	defer w.unpin(pinned)

	sb, err := sandbox.Create(filepath.Join(w.cfg.WorkDir, "sandboxes"), w.sandboxName(spec.ID),
		spec.Inputs, spec.Outputs, w.cache.Path)
	if err != nil {
		w.sendComplete(spec, true, 1, nil, nil, 0, 0, err)
		return
	}
	w.vm.SandboxesCreated.Inc()
	defer w.destroySandbox(sb)
	staged := time.Since(t0)

	t1 := time.Now()
	exit, output, peakMem, runErr := runCommand(ctx, spec, sb.Dir)
	runDur := time.Since(t1)
	usedDisk := dirBytes(sb.Dir)

	if runErr != nil || exit != 0 {
		if runErr == nil {
			runErr = fmt.Errorf("exit status %d", exit)
		}
		w.sendCompleteMeasured(spec, true, exit, output, nil, staged.Milliseconds(), runDur.Milliseconds(), usedDisk, peakMem, runErr)
		return
	}
	if spec.Resources.Disk > 0 && usedDisk > spec.Resources.Disk {
		// Resource exhaustion: the task exceeded its declared allocation
		// and is returned to the manager (§2.1).
		err := fmt.Errorf("resource exhaustion: task used %d bytes of disk, declared %d",
			usedDisk, spec.Resources.Disk)
		w.sendCompleteMeasured(spec, true, 1, output, nil, staged.Milliseconds(), runDur.Milliseconds(), usedDisk, peakMem, err)
		return
	}
	outputs, err := w.extractOutputs(sb, spec)
	if err != nil {
		w.sendCompleteMeasured(spec, true, 1, output, nil, staged.Milliseconds(), runDur.Milliseconds(), usedDisk, peakMem, err)
		return
	}
	w.sendCompleteMeasured(spec, true, 0, output, outputs, staged.Milliseconds(), runDur.Milliseconds(), usedDisk, peakMem, nil)
}

// extractOutputs reserves cache entries for each declared output, moves the
// produced files in, and commits them.
func (w *Worker) extractOutputs(sb *sandbox.Sandbox, spec *taskspec.Spec) ([]protocol.OutputInfo, error) {
	for _, m := range spec.Outputs {
		if _, err := w.cache.Reserve(m.FileID, -1, cache.LifetimeWorkflow); err != nil {
			return nil, fmt.Errorf("reserving output %s: %w", m.FileID, err)
		}
	}
	if err := sb.ExtractOutputs(w.cache.Path); err != nil {
		for _, m := range spec.Outputs {
			w.cache.Fail(m.FileID, err)
		}
		return nil, err
	}
	infos := make([]protocol.OutputInfo, 0, len(spec.Outputs))
	for _, m := range spec.Outputs {
		size, err := w.cache.Commit(m.FileID)
		if err != nil {
			return nil, err
		}
		infos = append(infos, protocol.OutputInfo{CacheName: m.FileID, Size: size})
	}
	return infos, nil
}

// dirBytes measures the residual size of a sandbox, the task's observed
// disk consumption. Direct recursion over ReadDir rather than WalkDir:
// this runs once per task on the dispatch path, and WalkDir's per-walk
// root DirEntry and per-entry path joins are overhead a size sum does
// not need.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var used int64
	for _, ent := range ents {
		if ent.IsDir() {
			used += dirBytes(filepath.Join(dir, ent.Name()))
			continue
		}
		if fi, err := ent.Info(); err == nil {
			used += fi.Size()
		}
	}
	return used
}

// taskSysProcAttr is shared by every task exec: os/exec only reads it,
// and allocating a fresh copy per task is avoidable dispatch-path churn.
var taskSysProcAttr = &syscall.SysProcAttr{Setpgid: true}

// baseEnv snapshots the worker's process environment once. A busy worker
// execs a task every few milliseconds and its environment never changes
// underneath it, so re-reading (and re-allocating) the whole environ per
// task is pure churn. Per-task variables are appended onto a copy.
var baseEnv = sync.OnceValue(os.Environ)

// taskEnv builds the task's private environment: the worker environment
// plus the TaskVine task variables and the spec's own Env overlay.
func taskEnv(spec *taskspec.Spec) []string {
	base := baseEnv()
	env := make([]string, len(base), len(base)+2+len(spec.Env))
	copy(env, base)
	env = append(env,
		"VINE_TASK_ID="+strconv.Itoa(spec.ID),
		"CORES="+strconv.Itoa(spec.Resources.Cores))
	for k, v := range spec.Env {
		env = append(env, k+"="+v)
	}
	return env
}

// runCommand executes the task command under /bin/sh in dir with the task's
// private environment, returning the exit code and a bounded copy of its
// combined output.
func runCommand(ctx context.Context, spec *taskspec.Spec, dir string) (exit int, output []byte, peakMemory int64, err error) {
	if spec.MaxRunSeconds > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.MaxRunSeconds*float64(time.Second)))
		defer cancel()
	}
	cmd := exec.CommandContext(ctx, "/bin/sh", "-c", spec.Command)
	cmd.Dir = dir
	// Tasks may spawn children; a kill must take down the whole process
	// group, and Wait must not linger on pipes held open by orphans.
	cmd.SysProcAttr = taskSysProcAttr
	cmd.Cancel = func() error {
		if cmd.Process != nil {
			return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		}
		return nil
	}
	cmd.WaitDelay = 5 * time.Second
	cmd.Env = taskEnv(spec)
	var out bytes.Buffer
	cmd.Stdout = &limitedWriter{w: &out, n: resultLimit}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return 1, out.Bytes(), 0, err
	}
	// Memory enforcement (§2.1): poll the task's process group RSS and
	// kill it the moment it exceeds the declared allocation. The tracker,
	// signal channel, and monitor context exist only when a limit is
	// declared — a nil memExceeded is simply never ready in the select
	// below, and unmonitored tasks (the common dispatch-bound case) skip
	// the allocations entirely.
	var memExceeded chan int64
	var peak *peakTracker
	if spec.Resources.Memory > 0 {
		memExceeded = make(chan int64, 1)
		peak = new(peakTracker)
		monCtx, monCancel := context.WithCancel(ctx)
		defer monCancel()
		pgid := cmd.Process.Pid
		go monitorMemoryPeak(monCtx, pgid, spec.Resources.Memory, peak, func(observed int64) {
			select {
			case memExceeded <- observed:
			default:
			}
			syscall.Kill(-pgid, syscall.SIGKILL)
		})
	}
	werr := cmd.Wait()
	if peak != nil {
		peakMemory = peak.get()
	}
	select {
	case observed := <-memExceeded:
		return 1, out.Bytes(), observed, fmt.Errorf(
			"resource exhaustion: task used %d bytes of memory, declared %d", observed, spec.Resources.Memory)
	default:
	}
	if spec.MaxRunSeconds > 0 && ctx.Err() == context.DeadlineExceeded {
		return 1, out.Bytes(), peakMemory, fmt.Errorf("wall time limit of %.1fs exceeded", spec.MaxRunSeconds)
	}
	if werr == nil {
		return 0, out.Bytes(), peakMemory, nil
	}
	if ee, ok := werr.(*exec.ExitError); ok {
		return ee.ExitCode(), out.Bytes(), peakMemory, nil
	}
	return 1, out.Bytes(), peakMemory, werr
}

// limitedWriter keeps the first n bytes and silently discards the rest, so
// chatty tasks cannot flood the manager connection.
type limitedWriter struct {
	w io.Writer
	n int
}

func (l *limitedWriter) Write(p []byte) (int, error) {
	if l.n <= 0 {
		return len(p), nil
	}
	keep := p
	if len(keep) > l.n {
		keep = keep[:l.n]
	}
	m, err := l.w.Write(keep)
	l.n -= m
	if err != nil {
		return m, err
	}
	return len(p), nil
}

// deployLibrary boots a persistent Library Instance (§3.4). The library
// task remains allocated for the worker's lifetime; readiness is signalled
// with a completion message carrying status "library-ready" and the task
// goroutine then parks until shutdown.
func (w *Worker) deployLibrary(ctx context.Context, spec *taskspec.Spec) {
	lib, ok := w.cfg.Libraries.Lookup(spec.Library)
	if !ok {
		w.sendComplete(spec, true, 1, nil, nil, 0, 0,
			fmt.Errorf("library %q is not compiled into this worker", spec.Library))
		return
	}
	inst := serverless.NewInstance(lib)
	t0 := time.Now()
	initMsg, err := inst.Boot()
	if err != nil {
		w.sendComplete(spec, true, 1, nil, nil, 0, 0, err)
		return
	}
	w.mu.Lock()
	w.instances[spec.Library] = inst
	w.libTasks[spec.Library] = spec.ID
	w.mu.Unlock()

	payload, _ := json.Marshal(initMsg)
	w.conn.Send(&protocol.Message{
		Type:         protocol.TypeComplete,
		WorkerID:     w.cfg.ID,
		TaskID:       spec.ID,
		Status:       "library-ready",
		Result:       payload,
		TimeStagedMS: time.Since(t0).Milliseconds(),
	})
	// Park until the worker shuts down; the instance serves invocations
	// from runFunction. Resources stay committed, matching the static
	// allocation each Library Instance consumes (§3.4).
	select {
	case <-w.closed:
	case <-ctx.Done():
	}
}

// runFunction executes a FunctionCall. When the named library has a running
// instance the call is routed to it, paying no startup cost; otherwise the
// worker boots an ephemeral instance, paying the full initialization (the
// non-serverless baseline).
func (w *Worker) runFunction(ctx context.Context, spec *taskspec.Spec) {
	w.mu.Lock()
	inst := w.instances[spec.Library]
	w.mu.Unlock()

	var stagedMS int64
	if inst == nil {
		lib, ok := w.cfg.Libraries.Lookup(spec.Library)
		if !ok {
			w.sendComplete(spec, true, 1, nil, nil, 0, 0,
				fmt.Errorf("library %q is not compiled into this worker", spec.Library))
			return
		}
		t0 := time.Now()
		eph := serverless.NewInstance(lib)
		if _, err := eph.Boot(); err != nil {
			w.sendComplete(spec, true, 1, nil, nil, 0, 0, err)
			return
		}
		stagedMS = time.Since(t0).Milliseconds()
		inst = eph
		defer eph.Stop()
	}

	args, err := w.resolveArgs(spec)
	if err != nil {
		w.sendComplete(spec, true, 1, nil, nil, stagedMS, 0, err)
		return
	}
	t1 := time.Now()
	res := inst.Invoke(serverless.InvokeMessage{
		InvocationID: spec.ID,
		Function:     spec.Function,
		Args:         json.RawMessage(args),
	})
	runMS := time.Since(t1).Milliseconds()
	if !res.OK {
		w.sendComplete(spec, true, 1, nil, nil, stagedMS, runMS, fmt.Errorf("%s", res.Error))
		return
	}
	// A function task may declare outputs: the convention is that each
	// declared output receives the serialized result as its content,
	// making function results first-class files. They land in the memory
	// tier when budgeted, so chained calls read them without disk IO.
	outputs, err := w.storeResult(spec, res.Result)
	if err != nil {
		w.sendComplete(spec, true, 1, nil, nil, stagedMS, runMS, err)
		return
	}
	inline := res.Result
	if spec.Resident {
		// The caller holds a handle; shipping the bytes to the manager
		// would defeat pass-by-reference.
		inline = nil
	}
	w.sendComplete(spec, true, 0, inline, outputs, stagedMS, runMS, nil)
}

// resolveArgs returns a function call's arguments, dereferencing ArgsFrom
// into the cached object's bytes — the pass-by-reference leg of a chained
// invocation. The object is pinned for the duration of the read; the
// returned slice may be shared immutable storage and must not be mutated.
func (w *Worker) resolveArgs(spec *taskspec.Spec) ([]byte, error) {
	if spec.ArgsFrom == "" {
		return spec.Args, nil
	}
	if err := w.cache.Pin(spec.ArgsFrom); err != nil {
		return nil, fmt.Errorf("args object %s missing from cache: %w", spec.ArgsFrom, err)
	}
	defer w.cache.Unpin(spec.ArgsFrom)
	if b, ok := w.cache.MemoryBytes(spec.ArgsFrom); ok {
		return b, nil
	}
	r, _, err := w.cache.Open(spec.ArgsFrom)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// storeResult lands a function result in the cache under each declared
// output mount (memory tier when budgeted) and reports any evictions the
// insertion pressure caused, so the manager's replica table converges
// before it sees the completion's outputs.
func (w *Worker) storeResult(spec *taskspec.Spec, result []byte) ([]protocol.OutputInfo, error) {
	var outputs []protocol.OutputInfo
	for _, m := range spec.Outputs {
		if err := w.cache.PutBytes(m.FileID, cache.LifetimeWorkflow, result); err != nil {
			return nil, err
		}
		outputs = append(outputs, protocol.OutputInfo{CacheName: m.FileID, Size: int64(len(result))})
	}
	if len(outputs) > 0 {
		w.reportEvictions()
	}
	return outputs, nil
}

// handleInvoke routes a FunctionCall directly to a running library
// instance (§3.4). Unlike TypeTask dispatch, an invocation consumes no
// worker-side allocation — the instance's static allocation covers it — so
// there is nothing to release on completion. If the instance is missing
// (stopped since the manager last looked), the failure report lets the
// manager reschedule through the normal path.
func (w *Worker) handleInvoke(spec *taskspec.Spec) {
	if spec == nil {
		return
	}
	w.mu.Lock()
	inst := w.instances[spec.Library]
	w.mu.Unlock()
	if inst == nil {
		w.sendComplete(spec, false, 1, nil, nil, 0, 0,
			fmt.Errorf("no running instance of library %q", spec.Library))
		return
	}
	args, err := w.resolveArgs(spec)
	if err != nil {
		w.sendComplete(spec, false, 1, nil, nil, 0, 0, err)
		return
	}
	t0 := time.Now()
	res := inst.Invoke(serverless.InvokeMessage{
		InvocationID: spec.ID,
		Function:     spec.Function,
		Args:         json.RawMessage(args),
	})
	runMS := time.Since(t0).Milliseconds()
	if !res.OK {
		w.sendComplete(spec, false, 1, nil, nil, 0, runMS, fmt.Errorf("%s", res.Error))
		return
	}
	// A resident invocation leaves its result in this worker's cache under
	// the declared output mounts; the completion reports the outputs so
	// the manager records the replica, and the bytes stay here.
	outputs, err := w.storeResult(spec, res.Result)
	if err != nil {
		w.sendComplete(spec, false, 1, nil, nil, 0, runMS, err)
		return
	}
	inline := res.Result
	if spec.Resident {
		inline = nil
	}
	w.sendComplete(spec, false, 0, inline, outputs, 0, runMS, nil)
}

// handleMini materializes a file by executing its MiniTask specification
// (§3.1): a sandboxed command whose single output lands in the cache under
// the product's content-independent name.
func (w *Worker) handleMini(ctx context.Context, m *protocol.Message) {
	spec := m.Spec
	if spec == nil || len(spec.Outputs) != 1 {
		w.cacheUpdate(m.CacheName, 0, m.TransferID, fmt.Errorf("malformed minitask"))
		return
	}
	name := spec.Outputs[0].FileID
	already, err := w.cache.Reserve(name, -1, cache.Lifetime(m.Lifetime))
	if err != nil || already {
		if err != nil {
			w.cacheUpdate(name, 0, m.TransferID, err)
		}
		return
	}
	var pinned []string
	fail := func(err error) {
		w.unpin(pinned)
		w.cache.Fail(name, err)
		w.cacheUpdate(name, 0, m.TransferID, err)
	}
	for _, in := range spec.Inputs {
		if err := w.cache.Pin(in.FileID); err != nil {
			fail(fmt.Errorf("minitask input %s missing: %w", in.FileID, err))
			return
		}
		pinned = append(pinned, in.FileID)
		if err := w.cache.Materialize(in.FileID); err != nil {
			fail(fmt.Errorf("materializing minitask input %s: %w", in.FileID, err))
			return
		}
	}
	sb, err := sandbox.Create(filepath.Join(w.cfg.WorkDir, "sandboxes"), w.sandboxName(spec.ID),
		spec.Inputs, spec.Outputs, w.cache.Path)
	if err != nil {
		fail(err)
		return
	}
	w.vm.SandboxesCreated.Inc()
	defer w.destroySandbox(sb)
	exit, out, _, runErr := runCommand(ctx, spec, sb.Dir)
	if runErr != nil || exit != 0 {
		if runErr == nil {
			runErr = fmt.Errorf("minitask exit %d: %s", exit, bytes.TrimSpace(out))
		}
		fail(runErr)
		return
	}
	if err := sb.ExtractOutputs(w.cache.Path); err != nil {
		fail(err)
		return
	}
	size, err := w.cache.Commit(name)
	w.unpin(pinned)
	w.cacheUpdate(name, size, m.TransferID, err)
}

// destroySandbox removes a task's sandbox, logging a failure instead of
// swallowing it: a lingering sandbox silently eats the disk the resource
// pool believes is free.
func (w *Worker) destroySandbox(sb *sandbox.Sandbox) {
	if err := sb.Destroy(); err != nil {
		w.vm.SandboxDestroyFailures.Inc()
		w.logf("removing sandbox %s: %v", sb.Dir, err)
		return
	}
	w.vm.SandboxesDestroyed.Inc()
}

// unpin releases a task's input pins. Releasing a pin may fire a deferred
// delete (the manager asked for a removal while the task was running), so
// any removals are reported immediately rather than waiting for the next
// cache-update.
func (w *Worker) unpin(names []string) {
	for _, n := range names {
		w.cache.Unpin(n)
	}
	if len(names) > 0 {
		w.reportEvictions()
	}
}

func (w *Worker) stopInstances() {
	w.mu.Lock()
	insts := make([]*serverless.Instance, 0, len(w.instances))
	for _, in := range w.instances {
		insts = append(insts, in)
	}
	w.instances = make(map[string]*serverless.Instance)
	w.libTasks = make(map[string]int)
	w.mu.Unlock()
	for _, in := range insts {
		in.Stop()
	}
}
