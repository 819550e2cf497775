package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"taskvine"
	"taskvine/internal/metrics"
	"taskvine/internal/trace"
)

// rig is an in-process cluster: one manager and its workers over loopback.
type rig struct {
	m      *taskvine.Manager
	vm     *metrics.VineMetrics
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startRig starts a manager and n workers with fresh work directories under
// dir, and waits until every worker has registered.
func startRig(dir string, n int, capacity taskvine.Resources, libs []*taskvine.Library) (*rig, error) {
	m, err := taskvine.NewManager(taskvine.ManagerConfig{})
	if err != nil {
		return nil, err
	}
	r := &rig{m: m, vm: metrics.ForRegistry(m.Metrics())}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	for i := 0; i < n; i++ {
		w, err := taskvine.NewWorker(taskvine.WorkerConfig{
			ManagerAddr: m.Addr(),
			WorkDir:     filepath.Join(dir, fmt.Sprintf("w%d", i)),
			Capacity:    capacity,
			ID:          fmt.Sprintf("w%d", i),
			Libraries:   libs,
			Metrics:     m.Metrics(),
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			// Run returns once the manager releases the worker or the
			// context ends; either is the expected way out here.
			_ = w.Run(ctx)
		}()
	}
	if err := waitFor(func() bool { return r.vm.WorkersConnected.Value() >= float64(n) }, 30*time.Second); err != nil {
		r.close()
		return nil, fmt.Errorf("waiting for %d workers: %w", n, err)
	}
	return r, nil
}

// close stops the manager and waits for every worker goroutine to exit.
func (r *rig) close() {
	r.m.Close()
	r.cancel()
	r.wg.Wait()
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(cond func() bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// removeAll deletes a work directory, reporting failure to stderr only: a
// leftover directory does not change any measurement.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing", dir+":", err)
	}
}

// Requests and flag of the FS_IOC_GETFLAGS and FS_IOC_SETFLAGS ioctls
// (linux/fs.h).
const (
	fsIocGetFlags = 0x80086601
	fsIocSetFlags = 0x40086602
	fsTopDirFl    = 0x00020000
)

// makeSpreadDir creates dir and, where the filesystem supports it, marks it
// as the top of a directory hierarchy (the TOPDIR flag of ext4), so that
// each directory made in it is placed in a block group of its own, and
// everything below that directory with it. It reports whether the flag is
// set.
//
// The benchmark needs this because an ext4 without a journal does not reuse
// an inode freed in the last minute or more: each create scans past every
// such inode in its group. A DAG run creates and deletes thousands of
// files, so when every run works in one group, creates slow down the longer
// the benchmark has run, and recover only after minutes of idle (about 10
// µs per create at first, 450 µs after some minutes of DAG runs, on a
// 2-vCPU VM). In a group of its own, a run's creates scan past only the
// inodes the run itself freed.
func makeSpreadDir(dir string) (bool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	f, err := os.Open(dir)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var flags int32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return false, nil
	}
	flags |= fsTopDirFl
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return false, nil
	}
	return true, nil
}

// clock0 estimates the wall time at which the manager's trace clock read
// zero, so trace times can be compared with the benchmark's own stamps.
// Status reports the manager clock from inside its event loop; the call
// with the narrowest wall-time bracket gives the estimate.
func (r *rig) clock0() time.Time {
	var best time.Duration
	var origin time.Time
	for i := 0; i < 5; i++ {
		t1 := time.Now()
		up := r.m.Status().UptimeSeconds
		d := time.Since(t1)
		if i == 0 || d < best {
			best = d
			origin = t1.Add(d/2 - time.Duration(up*float64(time.Second)))
		}
	}
	return origin
}

// clusterLayers reads the per-layer metrics of a real run from the
// manager's metric registry and trace log.
func clusterLayers(r *rig, rec *recorder, layer map[string]float64) {
	vm := r.vm
	layer["core.call_us"] = rec.p50("core.call")
	layer["core.schedule_passes"] = float64(vm.SchedulePasses.Value())
	layer["core.schedule_busy_ms"] = vm.SchedulePassSeconds.Sum() * 1e3
	layer["core.requeues"] = float64(vm.TasksRequeued.Value())
	layer["core.tasks_failed"] = float64(vm.TasksFailed.Value())

	var failures int64
	for _, src := range []string{"url", "manager", "worker"} {
		layer["replica.transfers."+src] = float64(vm.TransfersCompleted.With(src).Value())
		layer["replica.bytes."+src] = float64(vm.TransferBytes.With(src).Value())
		failures += vm.TransfersFailed.With(src).Value()
	}
	layer["replica.transfer_failures"] = float64(failures)
	layer["replica.transfer_retries"] = float64(vm.TransferRetries.Value())

	layer["worker.peer_serves"] = float64(vm.PeerServes.Value())
	layer["worker.peer_serve_bytes"] = float64(vm.PeerServeBytes.Value())
	layer["worker.peer_fetch_retries"] = float64(vm.PeerFetchRetries.Value())

	hits, misses := vm.CacheHits.Value(), vm.CacheMisses.Value()
	layer["cache.hits"] = float64(hits)
	layer["cache.misses"] = float64(misses)
	if hits+misses > 0 {
		layer["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	layer["cache.inserts"] = float64(vm.CacheInserts.Value() + vm.CacheMemInserts.Value())
	layer["cache.insert_bytes"] = float64(vm.CacheInsertBytes.Value() + vm.CacheMemInsertBytes.Value())
	layer["cache.evictions"] = float64(vm.CacheEvictions.Value())
	layer["cache.mem_inserts"] = float64(vm.CacheMemInserts.Value())
	layer["cache.mem_hits"] = float64(vm.CacheMemHits.Value())
	layer["cache.mem_spills"] = float64(vm.CacheMemSpills.Value())
	layer["cache.disk_inserts"] = float64(vm.CacheInserts.Value())
	layer["sandbox.created"] = float64(vm.SandboxesCreated.Value())
	layer["sandbox.destroy_failures"] = float64(vm.SandboxDestroyFailures.Value())

	events := r.m.Trace().Events()
	if n := vm.TasksSubmitted.Value(); n > 0 {
		layer["trace.events_per_task"] = float64(len(events)) / float64(n)
	}
	traceLayers(r, rec, events, layer)
}

// traceLayers derives time-based layer metrics from the trace log: task
// occupancy, staging and transfer time, worker busy share, and the wait
// from submission to dispatch.
func traceLayers(r *rig, rec *recorder, events []trace.Event, layer map[string]float64) {
	starts := map[int]float64{}
	open := map[string]float64{}
	transferMS := map[string]float64{}
	var stageMS float64
	for _, e := range events {
		key := e.Worker + "\x00" + e.File
		switch e.Kind {
		case trace.TaskStart:
			starts[e.TaskID] = e.Time
		case trace.TransferStart, trace.StageStart:
			open[key] = e.Time
		case trace.TransferEnd:
			if t0, ok := open[key]; ok {
				transferMS[metrics.SourceKind(e.Source)] += (e.Time - t0) * 1e3
				delete(open, key)
			}
		case trace.StageEnd:
			if t0, ok := open[key]; ok {
				stageMS += (e.Time - t0) * 1e3
				delete(open, key)
			}
		case trace.TransferFailed:
			delete(open, key)
		}
	}
	layer["worker.task_ms"] = median(taskRunMS(events))
	layer["worker.stage_ms"] = stageMS
	for _, src := range []string{"url", "manager", "worker"} {
		layer["replica.transfer_ms."+src] = transferMS[src]
	}
	layer["worker.busy_frac"] = trace.StateFractions(trace.WorkerView(events))[trace.Running]

	rec.mu.Lock()
	submits := rec.submits
	rec.mu.Unlock()
	clock0 := r.clock0()
	var waits []float64
	for _, s := range submits {
		if t, ok := starts[s.id]; ok {
			submitted := rec.base.Add(s.at).Sub(clock0).Seconds()
			waits = append(waits, (t-submitted)*1e3)
		}
	}
	layer["core.dispatch_wait_p50_ms"] = median(waits)
}

// taskRunMS returns, for every task the trace log saw finish, the time in
// milliseconds from its start at a worker to its end.
func taskRunMS(events []trace.Event) []float64 {
	starts := map[int]float64{}
	var out []float64
	for _, e := range events {
		switch e.Kind {
		case trace.TaskStart:
			starts[e.TaskID] = e.Time
		case trace.TaskEnd, trace.TaskFailed:
			if t0, ok := starts[e.TaskID]; ok {
				out = append(out, (e.Time-t0)*1e3)
			}
		}
	}
	return out
}
