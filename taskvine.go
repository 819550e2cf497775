// Package taskvine is a Go implementation of TaskVine, the workflow
// execution system described in "TaskVine: Managing In-Cluster Storage for
// High-Throughput Data Intensive Workflows" (Sly-Delgado et al., SC-W 2023).
//
// A TaskVine workflow is a dynamic graph of immutable data objects and
// tasks. The Manager coordinates a pool of Workers that exploit the local
// storage, memory, and compute of cluster nodes: data is left in place
// where it is created, replicated worker-to-worker under supervision, and
// reused across tasks and workflows through content-addressable caching.
//
// A minimal application mirrors Figure 3 of the paper:
//
//	m, _ := taskvine.NewManager(taskvine.ManagerConfig{})
//	blastURL := m.DeclareURL("https://.../blast.tar.gz", taskvine.CacheWorker)
//	blast, _ := m.DeclareUntar(blastURL, taskvine.CacheWorker)
//	land, _ := m.DeclareUntar(m.DeclareURL("https://.../landmark.tar.gz", taskvine.CacheWorker), taskvine.CacheWorkflow)
//
//	for i := 0; i < 1000; i++ {
//		query := m.DeclareBuffer(makeQuery(i), taskvine.CacheTask)
//		t := taskvine.NewTask("blast/bin/blast -db landmark -q query")
//		t.AddInput(query, "query")
//		t.AddInput(blast, "blast")
//		t.AddInput(land, "landmark")
//		t.SetEnv("BLASTDB", "landmark")
//		m.Submit(t)
//	}
//	for !m.Empty() {
//		r, _ := m.Wait(ctx)
//		...
//	}
package taskvine

import (
	"context"
	"fmt"
	"log"
	"time"

	"taskvine/internal/catalog"
	"taskvine/internal/core"
	"taskvine/internal/files"
	"taskvine/internal/httpsource"
	"taskvine/internal/metrics"
	"taskvine/internal/policy"
	"taskvine/internal/protocol"
	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
)

// CacheLevel is the cache-lifetime hint an application offers the manager
// about each file (§2.3).
type CacheLevel = files.Lifetime

// Cache lifetimes, from most to least ephemeral.
const (
	// CacheTask files are discarded as soon as the consuming task ends.
	CacheTask = files.LifetimeTask
	// CacheWorkflow files (the default) live for the workflow run.
	CacheWorkflow = files.LifetimeWorkflow
	// CacheWorker files persist on workers across workflows — typically
	// software packages and reference datasets.
	CacheWorker = files.LifetimeWorker
)

// Resources declares the fixed allocation a task consumes (cores, bytes of
// memory and disk, GPUs).
type Resources = resources.R

// Bytes helpers for resource declarations.
const (
	KB = resources.KB
	MB = resources.MB
	GB = resources.GB
	TB = resources.TB
)

// File is an opaque handle to a declared data object.
type File struct{ id string }

// ID returns the manager-assigned cache name of the object.
func (f File) ID() string { return f.id }

// Task is a unit of execution bound explicitly to its input and output
// files (§2.4). Create with NewTask, NewFunctionCall, or NewLibraryTask,
// configure, then Submit.
type Task struct {
	spec *taskspec.Spec
}

// NewTask creates a plain task: a Unix command line executed in a private
// sandbox at a worker.
func NewTask(command string) *Task {
	return &Task{spec: &taskspec.Spec{Kind: taskspec.KindCommand, Command: command}}
}

// NewFunctionCall creates a serverless FunctionCall task (§3.4) that
// invokes the named function of a library with JSON-serialized arguments.
// If the library has been installed with InstallLibrary, the call is routed
// to a persistent Library Instance and pays no startup cost; otherwise each
// call boots the library itself.
func NewFunctionCall(library, function string, args []byte) *Task {
	return &Task{spec: &taskspec.Spec{
		Kind:     taskspec.KindFunction,
		Library:  library,
		Function: function,
		Args:     args,
	}}
}

// AddInput mounts a declared file into the task sandbox under name.
func (t *Task) AddInput(f File, name string) { t.spec.AddInput(f.id, name) }

// AddOutput binds a file the task will produce at the sandbox name.
func (t *Task) AddOutput(f File, name string) { t.spec.AddOutput(f.id, name) }

// SetEnv sets an environment variable in the task's private environment.
func (t *Task) SetEnv(key, value string) { t.spec.SetEnv(key, value) }

// SetResources declares the task's fixed resource allocation, monitored
// and enforced at execution time.
func (t *Task) SetResources(r Resources) { t.spec.Resources = r }

// SetRetries bounds how many times the manager re-dispatches the task after
// failure before reporting it failed.
func (t *Task) SetRetries(n int) { t.spec.MaxRetries = n }

// SetCategory labels the task for reporting.
func (t *Task) SetCategory(c string) { t.spec.Category = c }

// SetMaxRunTime bounds the task's execution wall time at the worker;
// exceeding it kills the task (§2.1 execution-time enforcement).
func (t *Task) SetMaxRunTime(d time.Duration) { t.spec.MaxRunSeconds = d.Seconds() }

// ReplicateFile asks the manager to maintain at least n replicas of a file
// across workers, for reliability and transfer concurrency (§2.2).
func (m *Manager) ReplicateFile(f File, n int) error { return m.core.ReplicateFile(f.id, n) }

// Status returns a consistent snapshot of cluster state: workers, their
// committed resources and cached files, and the task pipeline.
func (m *Manager) Status() core.Status { return m.core.Status() }

// ServeStatus exposes the manager's introspection surface over HTTP for
// monitoring with cmd/vine-status or a Prometheus scraper: /status and
// /debug/vine (JSON), /trace (CSV), /metrics (Prometheus text), and
// /metrics.json (snapshot). It returns the bound address.
func (m *Manager) ServeStatus(addr string) (string, error) { return m.core.ServeStatus(addr) }

// Debug returns the deep scheduling state behind /debug/vine: the live task
// queue, the File Replica Table, the Current Transfer Table, and transfer
// retry backoffs.
func (m *Manager) Debug() core.DebugReport { return m.core.Debug() }

// Metrics returns the manager's instrument registry. All counters derived
// from execution events are maintained by a trace bridge, so the live
// instruments and post-hoc trace analysis always agree.
func (m *Manager) Metrics() *metrics.Registry { return m.core.Metrics() }

// CategoryStats aggregates observed task behaviour per category: counts,
// the largest measured disk and memory consumption, and execution times —
// the data an application needs to right-size future allocations (§2.1).
type CategoryStats = core.CategoryStats

// Categories returns per-category statistics for all finished tasks.
func (m *Manager) Categories() []CategoryStats { return m.core.Categories() }

// Result is the outcome of one completed task.
type Result = core.Result

// ManagerConfig parameterizes a Manager.
type ManagerConfig struct {
	// ListenAddr is where workers connect; defaults to a loopback port.
	ListenAddr string
	// Limits bounds concurrent transfers per source; zero fields take the
	// paper's defaults (worker-to-worker limit 3).
	Limits policy.Limits
	// Logger receives operational logs; nil silences them.
	Logger *log.Logger
	// DefaultTaskResources fills unspecified task requests (default: one
	// core).
	DefaultTaskResources Resources
	// AutoSizeResources fills unspecified task disk/memory requests from
	// each category's observed history (twice the largest measurement).
	AutoSizeResources bool
	// TraceFile, when set, receives the execution event log as CSV when
	// the manager closes — the workflow's transaction log.
	TraceFile string
	// Name is the manager's project name, advertised to the catalog when
	// CatalogAddr is set (the discovery mechanism of the TaskVine
	// ecosystem).
	Name string
	// CatalogAddr is a catalog server to advertise to ("host:port").
	CatalogAddr string
}

// Manager coordinates workers to execute a workflow (§2.2).
type Manager struct {
	core *core.Manager
	adv  *catalog.Advertiser
}

// NewManager starts a manager listening for worker connections.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	c, err := core.NewManager(core.Config{
		ListenAddr:           cfg.ListenAddr,
		Limits:               cfg.Limits,
		Head:                 httpsource.Head,
		Logger:               cfg.Logger,
		DefaultTaskResources: cfg.DefaultTaskResources,
		AutoSizeResources:    cfg.AutoSizeResources,
		TraceFile:            cfg.TraceFile,
	})
	if err != nil {
		return nil, err
	}
	m := &Manager{core: c}
	if cfg.CatalogAddr != "" {
		name := cfg.Name
		if name == "" {
			name = "taskvine"
		}
		m.adv = catalog.NewAdvertiser(cfg.CatalogAddr, name, 0, func() catalog.Entry {
			s := c.Status()
			return catalog.Entry{
				Addr:         s.Addr,
				Workers:      len(s.Workers),
				TasksWaiting: s.TasksWaiting,
				TasksRunning: s.TasksRunning,
			}
		})
	}
	return m, nil
}

// Addr returns the address workers should connect to.
func (m *Manager) Addr() string { return m.core.Addr() }

// Trace returns the manager's execution event log, the raw material for
// task-view and worker-view analysis.
func (m *Manager) Trace() *trace.Log { return m.core.Trace() }

// DeclareFile names a file or directory on the manager's (shared)
// filesystem as a workflow data object.
func (m *Manager) DeclareFile(path string, level CacheLevel) (File, error) {
	f, err := m.core.Files().DeclareLocal(path, level)
	if err != nil {
		return File{}, err
	}
	return File{f.ID}, nil
}

// DeclareBuffer names literal in-memory bytes as a data object.
func (m *Manager) DeclareBuffer(content []byte, level CacheLevel) File {
	f, err := m.core.Files().DeclareBuffer(content, level)
	if err != nil {
		// DeclareBuffer cannot fail except on internal collision, which is
		// a programming error.
		panic(err)
	}
	return File{f.ID}
}

// DeclareURL names a remote object that workers download on demand. For
// CacheWorker lifetime the manager derives a strong cache name from the
// URL's HTTP metadata without downloading it (§3.2).
func (m *Manager) DeclareURL(url string, level CacheLevel) (File, error) {
	f, err := m.core.Files().DeclareURL(url, level)
	if err != nil {
		return File{}, err
	}
	return File{f.ID}, nil
}

// DeclareTemp names an ephemeral file that exists only within the cluster
// and is never materialized outside it — the mechanism behind the
// in-cluster storage mode of Figure 13b.
func (m *Manager) DeclareTemp() File {
	return File{m.core.Files().DeclareTemp().ID}
}

// DeclareUntar wraps a built-in MiniTask (§3.1) that unpacks the given
// archive at the worker, returning the unpacked directory as a file object
// shared by all tasks on that worker.
func (m *Manager) DeclareUntar(archive File, level CacheLevel) (File, error) {
	spec := taskspec.UntarSpec(archive.id)
	f, err := m.core.Files().DeclareMiniTask(spec, level)
	if err != nil {
		return File{}, err
	}
	return File{f.ID}, nil
}

// DeclareGunzip wraps a built-in MiniTask that decompresses the given
// object at the worker.
func (m *Manager) DeclareGunzip(gz File, level CacheLevel) (File, error) {
	spec := taskspec.GunzipSpec(gz.id)
	f, err := m.core.Files().DeclareMiniTask(spec, level)
	if err != nil {
		return File{}, err
	}
	return File{f.ID}, nil
}

// DeclareMiniTask turns a task specification into a file produced on
// demand at workers (Figure 6). The task must produce one output named
// "output"; its product is named by the Merkle hash of the specification,
// so identical MiniTasks share one cached product cluster-wide.
func (m *Manager) DeclareMiniTask(t *Task, level CacheLevel) (File, error) {
	f, err := m.core.Files().DeclareMiniTask(t.spec, level)
	if err != nil {
		return File{}, err
	}
	return File{f.ID}, nil
}

// Submit queues a task for execution and returns its task ID.
func (m *Manager) Submit(t *Task) (int, error) {
	return m.core.Submit(t.spec)
}

// Wait blocks for the next completed task.
func (m *Manager) Wait(ctx context.Context) (*Result, error) {
	return m.core.Wait(ctx)
}

// WaitTimeout waits up to d for the next completed task.
func (m *Manager) WaitTimeout(d time.Duration) (*Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return m.core.Wait(ctx)
}

// Invoke calls a function of an installed library. When a worker already
// runs an instance, the call is routed straight to it with a lightweight
// invoke message and pays neither scheduling nor startup cost; otherwise
// it falls back to Submit-style scheduling of a FunctionCall task. The
// result arrives through Wait like any task's, carrying the serialized
// return value in Output.
func (m *Manager) Invoke(library, function string, args []byte) (int, error) {
	return m.core.Invoke(library, function, args)
}

// Handle is a pass-by-reference name for a function result left resident
// in a worker's cache (preferentially its in-memory tier). A Handle moves
// through the manager as a name only; the bytes it denotes stay in the
// cluster until fetched or the workflow ends.
type Handle struct{ id string }

// ID returns the handle's cache name.
func (h Handle) ID() string { return h.id }

// File converts the handle into a File so the resident object can be
// mounted as an input of an ordinary task.
func (h Handle) File() File { return File{h.id} }

// InvokeResident calls a function like Invoke but leaves the result
// resident at the executing worker instead of shipping it back inline. The
// returned Handle names the result; chain it with InvokeChained, mount it
// via Handle.File, or FetchFile it to materialize the bytes:
//
//	_, h, _ := m.InvokeResident("math", "double", []byte("[1]"))
//	for i := 0; i < 10; i++ {
//		_, h, _ = m.InvokeChained("math", "double", h)
//	}
//	final, _ := m.FetchFile(ctx, h.File())
//
// The intermediate results of the chain above never leave the worker.
func (m *Manager) InvokeResident(library, function string, args []byte) (int, Handle, error) {
	id, hid, err := m.core.InvokeResident(library, function, args)
	return id, Handle{hid}, err
}

// InvokeChained calls a function whose argument bytes are the contents of
// a previously returned Handle, resolved at the worker holding them. The
// result is again left resident and named by the returned Handle.
func (m *Manager) InvokeChained(library, function string, h Handle) (int, Handle, error) {
	id, hid, err := m.core.InvokeChained(library, function, h.id)
	return id, Handle{hid}, err
}

// Cancel aborts a submitted task. Waiting tasks finish immediately with a
// cancellation result; running tasks are killed at their worker and finish
// when the worker confirms. Cancelling an unknown or finished task errors.
func (m *Manager) Cancel(taskID int) error { return m.core.Cancel(taskID) }

// Empty reports whether every submitted task has completed.
func (m *Manager) Empty() bool { return m.core.Empty() }

// FetchFile retrieves a data object's content back to the manager.
func (m *Manager) FetchFile(ctx context.Context, f File) ([]byte, error) {
	return m.core.FetchFile(ctx, f.id)
}

// InstallLibrary deploys the named serverless library (compiled into the
// workers) to every current and future worker, each instance holding the
// given static allocation (§3.4).
func (m *Manager) InstallLibrary(name string, res Resources) {
	m.core.InstallLibrary(name, res)
}

// EndWorkflow concludes the current workflow: ephemeral objects are
// discarded cluster-wide while CacheWorker objects persist for future
// workflows.
func (m *Manager) EndWorkflow() { m.core.EndWorkflow() }

// Close releases all workers and stops the manager.
func (m *Manager) Close() {
	if m.adv != nil {
		m.adv.Stop()
	}
	m.core.Close()
}

// OutputInfo describes one output object a completed task produced.
type OutputInfo = protocol.OutputInfo

// String renders a result for logs.
func ResultString(r *Result) string {
	status := "ok"
	if !r.OK {
		status = "failed: " + r.Error
	}
	return fmt.Sprintf("task %d on %s: %s (staged %dms, ran %dms)",
		r.TaskID, r.Worker, status, r.StagedMS, r.RunMS)
}
