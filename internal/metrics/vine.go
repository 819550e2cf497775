package metrics

import (
	"strings"
	"sync/atomic"

	"taskvine/internal/trace"
)

// This file defines the instrument set shared by every TaskVine execution
// substrate. The real manager (internal/core), the worker (internal/worker
// and internal/cache), the discrete-event simulator (internal/sim), the
// batch supervisor (internal/batch), and the fault injector (internal/chaos)
// all register the same family names through ForRegistry, so a simulated run
// and a real run of the same workflow expose diffable metric surfaces.
//
// Naming scheme: vine_<subsystem>_<quantity>[_total]. Counters end in
// _total; gauges and histograms do not. Source labels carry the source KIND
// ("url", "manager", "worker", "shared-fs"), never individual worker IDs, so
// cardinality stays bounded on thousand-worker clusters.

// Histogram bucket layouts, in seconds.
var (
	// SchedulePassBuckets spans a microsecond no-op pass to a pathological
	// second-long one.
	SchedulePassBuckets = []float64{1e-5, 1e-4, 1e-3, 0.01, 0.1, 1}
	// DispatchLatencyBuckets spans submit-to-dispatch waits from instant
	// placement to minutes queued behind a full cluster.
	DispatchLatencyBuckets = []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 30, 120}
)

// VineMetrics is the handle bundle for the shared instrument set. Every
// field is registered by ForRegistry; the parity test reflects over this
// struct to guarantee no field is left nil.
type VineMetrics struct {
	reg *Registry

	// TraceEvents counts every recorded trace event by kind — the bridge
	// increments it for each trace.Event, so this family can never disagree
	// with the post-hoc event log.
	TraceEvents *CounterVec // kind

	// byKind lazily caches the TraceEvents child for each trace kind: the
	// bridge's observe path runs once per recorded event, and resolving
	// the child through With on every event pays a variadic-slice
	// allocation in the dispatch hot path. Indexed by int(trace.Kind);
	// sized by ForRegistry, entries filled on first observation so the
	// exported label set is unchanged.
	byKind []atomic.Pointer[Counter]
	// bySource does the same for the transfer families' source labels:
	// entry fam*len(sourceKinds)+i caches the child of the family with
	// index fam (famStarted...) for sourceKinds[i].
	bySource []atomic.Pointer[Counter]

	// Worker membership (core + sim).
	WorkersJoined    *Counter
	WorkersLeft      *Counter
	WorkersConnected *Gauge

	// Transfers, by source kind (core + sim; the paper's Figures 11–13).
	TransfersStarted     *CounterVec // source
	TransfersCompleted   *CounterVec // source
	TransfersFailed      *CounterVec // source
	TransferBytes        *CounterVec // source
	TransferRetries      *Counter
	TransferAbandonments *Counter
	TransfersInflight    *Gauge

	// On-worker materialization (MiniTask staging, §3.1).
	StagesStarted   *Counter
	StagesCompleted *Counter
	StageBytes      *Counter

	// Task lifecycle (core + sim).
	TasksSubmitted  *Counter
	TasksStarted    *Counter
	TasksCompleted  *Counter
	TasksFailed     *Counter
	TasksRequeued   *Counter
	TasksCancelled  *Counter
	TasksByState    *GaugeVec // state
	DispatchLatency *Histogram
	ReplicasLost    *Counter
	Recoveries      *Counter

	// Scheduler (core + sim).
	SchedulePasses      *Counter
	SchedulePassSeconds *Histogram

	// Control-plane sends to live workers that failed (best-effort
	// messages whose loss would otherwise be silent), by operation.
	SendErrors *CounterVec // op

	// Serverless (§3.4).
	LibrariesReady *Counter

	// Worker cache (internal/cache + sim storage). The Inserts/UsedBytes
	// families account the disk tier; the CacheMem* families account the
	// RAM-backed tier (PR 8), so "zero disk inserts" for handle-resident
	// results is directly observable as CacheInserts staying flat while
	// CacheMemInserts grows.
	CacheHits           *Counter
	CacheMisses         *Counter
	CacheInserts        *Counter
	CacheInsertBytes    *Counter
	CacheEvictions      *Counter
	CacheEvictionBytes  *Counter
	CacheUsedBytes      *Gauge
	CacheMemHits        *Counter
	CacheMemInserts     *Counter
	CacheMemInsertBytes *Counter
	CacheMemSpills      *Counter
	CacheMemSpillBytes  *Counter
	CacheMemUsedBytes   *Gauge

	// Worker sandbox lifecycle and peer transfer service.
	SandboxesCreated       *Counter
	SandboxesDestroyed     *Counter
	SandboxDestroyFailures *Counter
	PeerServes             *Counter
	PeerServeBytes         *Counter
	PeerFetchRetries       *Counter

	// Batch supervision (internal/batch).
	BatchJobsLive    *Gauge
	BatchSubmissions *Counter
	BatchRestarts    *Counter
	BatchResizes     *Counter

	// Fault injection (internal/chaos).
	ChaosInjections *CounterVec // point, action
}

// ForRegistry registers (or re-fetches) the shared TaskVine instrument set
// on a registry. Registration is idempotent, so an in-process manager, its
// workers, and a batch pool can all call ForRegistry on one shared registry
// and increment the same underlying instruments.
func ForRegistry(r *Registry) *VineMetrics {
	v := &VineMetrics{
		reg: r,

		TraceEvents: r.CounterVec("vine_trace_events_total",
			"Execution trace events recorded, by event kind.", "kind"),

		WorkersJoined: r.Counter("vine_workers_joined_total",
			"Workers that registered with the manager."),
		WorkersLeft: r.Counter("vine_workers_left_total",
			"Workers that departed (released, crashed, or timed out)."),
		WorkersConnected: r.Gauge("vine_workers_connected",
			"Workers currently connected and serving."),

		TransfersStarted: r.CounterVec("vine_transfers_started_total",
			"Supervised transfers issued, by source kind.", "source"),
		TransfersCompleted: r.CounterVec("vine_transfers_completed_total",
			"Supervised transfers that landed, by source kind.", "source"),
		TransfersFailed: r.CounterVec("vine_transfers_failed_total",
			"Supervised transfers that failed, by source kind.", "source"),
		TransferBytes: r.CounterVec("vine_transfer_bytes_total",
			"Bytes moved by completed transfers, by source kind.", "source"),
		TransferRetries: r.Counter("vine_transfer_retries_total",
			"Supervised transfers re-issued with backoff after a failure."),
		TransferAbandonments: r.Counter("vine_transfer_abandonments_total",
			"Placements abandoned after exhausting the transfer retry limit."),
		TransfersInflight: r.Gauge("vine_transfers_inflight",
			"Supervised transfers currently in flight."),

		StagesStarted: r.Counter("vine_stages_started_total",
			"On-worker materializations (MiniTask executions) begun."),
		StagesCompleted: r.Counter("vine_stages_completed_total",
			"On-worker materializations completed."),
		StageBytes: r.Counter("vine_stage_bytes_total",
			"Bytes produced by completed materializations."),

		TasksSubmitted: r.Counter("vine_tasks_submitted_total",
			"Tasks submitted by the application (library deployments excluded)."),
		TasksStarted: r.Counter("vine_tasks_started_total",
			"Task executions dispatched to workers."),
		TasksCompleted: r.Counter("vine_tasks_completed_total",
			"Task executions that finished successfully."),
		TasksFailed: r.Counter("vine_tasks_failed_total",
			"Task executions that finished unsuccessfully."),
		TasksRequeued: r.Counter("vine_tasks_requeued_total",
			"Tasks returned to the waiting queue (worker loss, transfer abandonment, retry)."),
		TasksCancelled: r.Counter("vine_tasks_cancelled_total",
			"Tasks aborted by the application."),
		TasksByState: r.GaugeVec("vine_tasks_state",
			"Tasks currently in each lifecycle state.", "state"),
		DispatchLatency: r.Histogram("vine_dispatch_latency_seconds",
			"Delay from task submission to dispatch at a worker.", DispatchLatencyBuckets),
		ReplicasLost: r.Counter("vine_replicas_lost_total",
			"Files observed below their requested replica count after a holder departed."),
		Recoveries: r.Counter("vine_recovery_reexecutions_total",
			"Producer tasks re-executed to regenerate lost temp files."),

		SchedulePasses: r.Counter("vine_schedule_passes_total",
			"Scheduling decision passes run."),
		SchedulePassSeconds: r.Histogram("vine_schedule_pass_seconds",
			"Wall-clock duration of each scheduling pass.", SchedulePassBuckets),

		SendErrors: r.CounterVec("vine_send_errors_total",
			"Control messages to live workers that failed to send, by operation.", "op"),

		LibrariesReady: r.Counter("vine_libraries_ready_total",
			"Library instances that became ready at a worker."),

		CacheHits: r.Counter("vine_cache_hits_total",
			"Cache lookups that found the object ready (task inputs pinned in place)."),
		CacheMisses: r.Counter("vine_cache_misses_total",
			"Cache lookups that missed (object absent or not yet ready)."),
		CacheInserts: r.Counter("vine_cache_inserts_total",
			"Objects committed into a worker cache."),
		CacheInsertBytes: r.Counter("vine_cache_insert_bytes_total",
			"Bytes committed into worker caches."),
		CacheEvictions: r.Counter("vine_cache_evictions_total",
			"Objects evicted from worker caches for space."),
		CacheEvictionBytes: r.Counter("vine_cache_eviction_bytes_total",
			"Bytes evicted from worker caches for space."),
		CacheUsedBytes: r.Gauge("vine_cache_used_bytes",
			"Bytes currently accounted to disk-tier cached objects."),
		CacheMemHits: r.Counter("vine_cache_mem_hits_total",
			"Cache reads served straight from the memory tier."),
		CacheMemInserts: r.Counter("vine_cache_mem_inserts_total",
			"Objects inserted into the memory tier of a worker cache."),
		CacheMemInsertBytes: r.Counter("vine_cache_mem_insert_bytes_total",
			"Bytes inserted into memory tiers of worker caches."),
		CacheMemSpills: r.Counter("vine_cache_mem_spills_total",
			"Memory-tier objects spilled to disk under memory pressure."),
		CacheMemSpillBytes: r.Counter("vine_cache_mem_spill_bytes_total",
			"Bytes spilled from memory tiers to disk."),
		CacheMemUsedBytes: r.Gauge("vine_cache_mem_used_bytes",
			"Bytes currently accounted to memory-tier cached objects."),

		SandboxesCreated: r.Counter("vine_sandboxes_created_total",
			"Task sandboxes created."),
		SandboxesDestroyed: r.Counter("vine_sandboxes_destroyed_total",
			"Task sandboxes removed after execution."),
		SandboxDestroyFailures: r.Counter("vine_sandbox_destroy_failures_total",
			"Sandbox removals that failed (bytes silently occupying the disk)."),
		PeerServes: r.Counter("vine_peer_serves_total",
			"Objects served to peer workers."),
		PeerServeBytes: r.Counter("vine_peer_serve_bytes_total",
			"Bytes served to peer workers."),
		PeerFetchRetries: r.Counter("vine_peer_fetch_retries_total",
			"Local peer-fetch retries before escalating to the manager."),

		BatchJobsLive: r.Gauge("vine_batch_jobs",
			"Supervised batch worker jobs currently live."),
		BatchSubmissions: r.Counter("vine_batch_submissions_total",
			"Batch worker jobs submitted."),
		BatchRestarts: r.Counter("vine_batch_restarts_total",
			"Batch worker jobs restarted after unexpected exits."),
		BatchResizes: r.Counter("vine_batch_resizes_total",
			"Autoscaler-initiated changes to the batch pool's target size."),

		ChaosInjections: r.CounterVec("vine_chaos_injections_total",
			"Faults fired by the chaos injector, by point and action.", "point", "action"),
	}
	v.byKind = make([]atomic.Pointer[Counter], len(trace.AllKinds()))
	v.bySource = make([]atomic.Pointer[Counter], numTransferFamilies*len(sourceKinds))
	return v
}

// kindCounter returns the TraceEvents child for k, caching the resolved
// counter after the first lookup. With returns the same child for the
// same label, so a racing double-resolution stores an identical pointer.
func (v *VineMetrics) kindCounter(k trace.Kind) *Counter {
	i := int(k)
	if i < 0 || i >= len(v.byKind) {
		return v.TraceEvents.With(k.String())
	}
	if c := v.byKind[i].Load(); c != nil {
		return c
	}
	c := v.TraceEvents.With(k.String())
	v.byKind[i].Store(c)
	return c
}

// The source-labelled transfer families, as bySource indexes them.
const (
	famStarted = iota
	famCompleted
	famFailed
	famBytes
	numTransferFamilies
)

// sourceKinds are the source kinds SourceKind returns for the labels the
// manager and the simulator trace; any other kind is resolved every time.
var sourceKinds = [...]string{"url", "manager", "worker", "shared-fs", "unknown"}

// sourceCounter returns vec's child for a trace source label, caching the
// resolved counter per family (fam, vec's index) and source kind as
// kindCounter does per kind.
func (v *VineMetrics) sourceCounter(fam int, vec *CounterVec, source string) *Counter {
	kind := SourceKind(source)
	i := 0
	for i < len(sourceKinds) && sourceKinds[i] != kind {
		i++
	}
	if i == len(sourceKinds) || v.bySource == nil {
		return vec.With(kind)
	}
	p := &v.bySource[fam*len(sourceKinds)+i]
	if c := p.Load(); c != nil {
		return c
	}
	c := vec.With(kind)
	p.Store(c)
	return c
}

// Registry returns the registry the instrument set is bound to.
func (v *VineMetrics) Registry() *Registry {
	if v == nil {
		return nil
	}
	return v.reg
}

// SourceKind normalizes a trace source label ("worker:w3", "url",
// "manager", "shared-fs") to its kind, keeping transfer-family label
// cardinality independent of cluster size.
func SourceKind(source string) string {
	switch {
	case source == "":
		return "unknown"
	case strings.HasPrefix(source, "worker:"):
		return "worker"
	default:
		return source
	}
}
