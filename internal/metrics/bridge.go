package metrics

import "taskvine/internal/trace"

// BridgeTrace installs an observer on a trace log so every recorded event
// increments its metric families. The bridge is the single source of truth
// for event-derived counters — production code never increments them
// directly — which is what guarantees the live /metrics view and the
// post-hoc trace aggregates (Summarize, WriteCSV) can never disagree
// silently. The cross-check test in bridge_test.go enforces the equality.
func BridgeTrace(log *trace.Log, v *VineMetrics) {
	if log == nil || v == nil {
		return
	}
	log.Observe(func(e trace.Event) { v.observe(e) })
}

// observe translates one trace event into counter increments.
func (v *VineMetrics) observe(e trace.Event) {
	v.kindCounter(e.Kind).Inc()
	switch e.Kind {
	case trace.WorkerJoined:
		v.WorkersJoined.Inc()
	case trace.WorkerLeft:
		v.WorkersLeft.Inc()
	case trace.TransferStart:
		v.sourceCounter(famStarted, v.TransfersStarted, e.Source).Inc()
	case trace.TransferEnd:
		v.sourceCounter(famCompleted, v.TransfersCompleted, e.Source).Inc()
		v.sourceCounter(famBytes, v.TransferBytes, e.Source).Add(e.Bytes)
	case trace.TransferFailed:
		v.sourceCounter(famFailed, v.TransfersFailed, e.Source).Inc()
	case trace.StageStart:
		v.StagesStarted.Inc()
	case trace.StageEnd:
		v.StagesCompleted.Inc()
		v.StageBytes.Add(e.Bytes)
	case trace.TaskStart:
		v.TasksStarted.Inc()
	case trace.TaskEnd:
		v.TasksCompleted.Inc()
	case trace.TaskFailed:
		v.TasksFailed.Inc()
	case trace.LibraryReady:
		v.LibrariesReady.Inc()
	case trace.FileEvicted:
		v.CacheEvictions.Inc()
		v.CacheEvictionBytes.Add(e.Bytes)
	case trace.TransferRetry:
		v.TransferRetries.Inc()
	case trace.ReplicaLost:
		v.ReplicasLost.Inc()
	case trace.RecoveryStart:
		v.Recoveries.Inc()
	}
}

// KindFamilies maps a trace kind to the metric family names its events
// increment beyond vine_trace_events_total. The parity test iterates
// AllKinds and fails on any kind missing here, so adding a trace kind
// without deciding its metric mapping breaks the build loudly.
func KindFamilies(k trace.Kind) []string {
	switch k {
	case trace.WorkerJoined:
		return []string{"vine_workers_joined_total"}
	case trace.WorkerLeft:
		return []string{"vine_workers_left_total"}
	case trace.TransferStart:
		return []string{"vine_transfers_started_total"}
	case trace.TransferEnd:
		return []string{"vine_transfers_completed_total", "vine_transfer_bytes_total"}
	case trace.TransferFailed:
		return []string{"vine_transfers_failed_total"}
	case trace.StageStart:
		return []string{"vine_stages_started_total"}
	case trace.StageEnd:
		return []string{"vine_stages_completed_total", "vine_stage_bytes_total"}
	case trace.TaskStart:
		return []string{"vine_tasks_started_total"}
	case trace.TaskEnd:
		return []string{"vine_tasks_completed_total"}
	case trace.TaskFailed:
		return []string{"vine_tasks_failed_total"}
	case trace.LibraryReady:
		return []string{"vine_libraries_ready_total"}
	case trace.FileEvicted:
		return []string{"vine_cache_evictions_total", "vine_cache_eviction_bytes_total"}
	case trace.TransferRetry:
		return []string{"vine_transfer_retries_total"}
	case trace.ReplicaLost:
		return []string{"vine_replicas_lost_total"}
	case trace.RecoveryStart:
		return []string{"vine_recovery_reexecutions_total"}
	}
	return nil
}
