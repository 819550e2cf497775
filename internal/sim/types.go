package sim

import (
	"taskvine/internal/files"
)

// SourceKind locates the origin of a simulated file's bytes.
type SourceKind int

const (
	// FromURL means an external archival server.
	FromURL SourceKind = iota
	// FromSharedFS means the cluster's shared filesystem.
	FromSharedFS
	// FromManager means the manager process ships the bytes itself.
	FromManager
	// Produced means a task output (temp): exists only once produced.
	Produced
	// MiniProduct means materialized on demand by a MiniTask (e.g. an
	// unpacked environment).
	MiniProduct
)

// File describes one data object in a simulated workload.
type File struct {
	ID   string
	Size int64
	// Lifetime uses the files package levels.
	Lifetime files.Lifetime
	Kind     SourceKind
	// SourcePath names the URL or shared-FS path for FromURL/FromSharedFS,
	// grouping per-source transfer limits.
	SourcePath string
	// MiniInputs lists the input file IDs of the producing MiniTask
	// (MiniProduct only); UnpackRate is bytes/second of materialization
	// work at the worker.
	MiniInputs []string
	UnpackRate float64
}

// Task describes one unit of simulated execution.
type Task struct {
	ID      int
	Inputs  []string
	Outputs []Output
	// Runtime is pure execution seconds once inputs are staged.
	Runtime float64
	// Cores occupied while running.
	Cores int
	// Category labels the task in traces.
	Category string
	// Library, when set, marks a serverless FunctionCall that can only run
	// on a worker with the library's instance deployed.
	Library string
	// ReturnOutputs ships every output back to the manager on completion
	// (the shared-storage mode of Figure 13a); otherwise outputs stay in
	// cluster storage as temps.
	ReturnOutputs bool
}

// outputBytes is the total size of the task's outputs.
func (t *Task) outputBytes() int64 {
	var total int64
	for _, out := range t.Outputs {
		total += out.Size
	}
	return total
}

// Output is one produced object and its (modeled) size.
type Output struct {
	ID   string
	Size int64
}

// Library describes a serverless library deployment: its environment
// object must be staged to the worker, then boot takes BootTime, after
// which FunctionCalls run with no startup cost (§3.4).
type Library struct {
	Name string
	// EnvFile is the file ID of the library's environment object.
	EnvFile string
	// BootTime is the one-time initialization in seconds.
	BootTime float64
	// Cores held by each instance.
	Cores int
}

// WorkerSpec describes one simulated node.
type WorkerSpec struct {
	ID    string
	Cores int
	Disk  int64
	// JoinTime is when the worker becomes available (cluster nodes arrive
	// gradually on a shared batch system, Figure 12d).
	JoinTime float64
	// LeaveTime, when positive, preempts the worker at that instant: its
	// replicas are lost, running tasks requeue, and in-flight transfers
	// fail — the dynamic departure of §2.2.
	LeaveTime float64
	// BW is NIC bandwidth in bytes/second (default cluster BW).
	BW float64
	// Prestaged lists file IDs already in the worker's persistent cache
	// (hot-cache experiments, Figure 9b).
	Prestaged []string
}

// Workload is a complete simulated experiment.
type Workload struct {
	Files     map[string]*File
	Tasks     []*Task
	Libraries []*Library
	Workers   []WorkerSpec
}

// Params sets the cluster environment, mirroring the paper's testbed
// (§4: 10 Gb Ethernet, Panasas shared filesystem at 5 GB/s).
type Params struct {
	// WorkerBW is the default NIC bandwidth, bytes/second.
	WorkerBW float64
	// WorkerUpBW caps a worker's aggregate *serving* bandwidth (peer
	// uploads). Serving peers is disk-read bound well below NIC line
	// rate; this asymmetry is why a moderate per-source transfer limit
	// beats a large one (§4.1).
	WorkerUpBW float64
	// ManagerBW is the manager NIC bandwidth.
	ManagerBW float64
	// URLBW is the external archive's aggregate bandwidth.
	URLBW float64
	// SharedFSBW is the shared filesystem's aggregate bandwidth.
	SharedFSBW float64
	// SharedFSOpLatency charges fixed seconds per shared-FS open
	// (metadata operation cost).
	SharedFSOpLatency float64
	// TransferLatency is fixed per-transfer connection setup time.
	TransferLatency float64
	// ControlLatency models manager-worker message latency; scheduling
	// reactions happen this long after their triggering event.
	ControlLatency float64
	// OverheadPerFlow is the per-flow efficiency degradation applied to
	// worker sources (the Figure 11b contention model).
	OverheadPerFlow float64
	// PerFlowBW caps any single stream (single-TCP-over-10GbE realism);
	// zero means uncapped.
	PerFlowBW float64
	// DefaultUnpackRate is bytes/second for MiniTask materialization.
	DefaultUnpackRate float64
	// IgnoreLocality disables data-aware placement: tasks go to the first
	// worker with free resources regardless of cached inputs. Used by the
	// scheduler-placement ablation.
	IgnoreLocality bool
}

// DefaultParams returns parameters matching the paper's testbed: 10 GbE
// (~1.15 GB/s), a 5 GB/s shared filesystem, and a modest external archive.
func DefaultParams() Params {
	return Params{
		WorkerBW:          1.15e9,
		WorkerUpBW:        90e6,
		ManagerBW:         1.15e9,
		URLBW:             1.15e9,
		SharedFSBW:        5e9,
		SharedFSOpLatency: 0.005,
		TransferLatency:   0.010,
		ControlLatency:    0.002,
		OverheadPerFlow:   0.05,
		PerFlowBW:         25e6,
		DefaultUnpackRate: 400e6,
	}
}
