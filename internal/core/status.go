package core

import (
	"encoding/json"
	"net"
	"net/http"

	"taskvine/internal/metrics"
	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
)

// WorkerStatus is one worker's row in a status report.
type WorkerStatus struct {
	ID           string      `json:"id"`
	TransferAddr string      `json:"transfer_addr"`
	Capacity     resources.R `json:"capacity"`
	Committed    resources.R `json:"committed"`
	RunningTasks int         `json:"running_tasks"`
	CachedFiles  int         `json:"cached_files"`
	Libraries    []string    `json:"libraries,omitempty"`
	JoinOrder    int         `json:"join_order"`
}

// Status is a consistent snapshot of the manager's distributed state — the
// operator-facing view of the "detailed picture" of §2.2.
type Status struct {
	Addr              string         `json:"addr"`
	Workers           []WorkerStatus `json:"workers"`
	TasksWaiting      int            `json:"tasks_waiting"`
	TasksStaging      int            `json:"tasks_staging"`
	TasksRunning      int            `json:"tasks_running"`
	TasksDone         int            `json:"tasks_done"`
	TasksFailed       int            `json:"tasks_failed"`
	TransfersInFlight int            `json:"transfers_in_flight"`
	FilesDeclared     int            `json:"files_declared"`
	UptimeSeconds     float64        `json:"uptime_seconds"`
}

// Status returns a snapshot taken inside the event loop, so every number is
// mutually consistent.
func (m *Manager) Status() Status {
	reply := make(chan Status, 1)
	if s, ok := ask(m, event{kind: evStatus, status: reply}, reply); ok {
		return s
	}
	return Status{Addr: m.Addr()}
}

// appCount returns how many application tasks are in state s.
func (m *Manager) appCount(s taskspec.State) int { return m.sched.Count(s) - m.libCount[s] }

// buildStatus runs inside the event loop.
func (m *Manager) buildStatus() Status {
	s := Status{
		Addr:              m.Addr(),
		TransfersInFlight: m.trs.Len(),
		FilesDeclared:     len(m.reg.All()),
		UptimeSeconds:     m.now(),
		TasksWaiting:      m.appCount(taskspec.StateWaiting),
		TasksStaging:      m.appCount(taskspec.StateStaging),
		TasksRunning:      m.appCount(taskspec.StateRunning),
		TasksDone:         m.appCount(taskspec.StateDone),
		TasksFailed:       m.appCount(taskspec.StateFailed),
	}
	for _, w := range m.workers {
		if w.gone {
			continue
		}
		ws := WorkerStatus{
			ID:           w.id,
			TransferAddr: w.transferAddr,
			Capacity:     w.capacity,
			Committed:    w.pool.Committed(),
			RunningTasks: len(w.running),
			CachedFiles:  m.reps.ReadyFilesOn(w.h),
			JoinOrder:    w.joinOrder,
		}
		for lib := range w.libsReady {
			ws.Libraries = append(ws.Libraries, lib)
		}
		s.Workers = append(s.Workers, ws)
	}
	// Deterministic order for display and tests.
	for i := 0; i < len(s.Workers); i++ {
		for j := i + 1; j < len(s.Workers); j++ {
			if s.Workers[j].JoinOrder < s.Workers[i].JoinOrder {
				s.Workers[i], s.Workers[j] = s.Workers[j], s.Workers[i]
			}
		}
	}
	return s
}

// ServeStatus exposes the manager's runtime introspection surface over
// HTTP for monitoring tools (cmd/vine-status, Prometheus scrapers):
//
//	GET /status       -> Status JSON
//	GET /trace        -> execution events as CSV
//	GET /metrics      -> instrument families, Prometheus text format
//	GET /metrics.json -> instrument families as a JSON snapshot
//	GET /debug/vine   -> queue/replica/transfer/retry tables as JSON
//
// It returns the bound address. The server stops when the listener is
// closed at manager shutdown.
func (m *Manager) ServeStatus(addr string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(m.Status())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		trace.WriteCSV(w, m.tlog.Events())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.WritePrometheus(w, m.cfg.Metrics)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(metrics.TakeSnapshot(m.cfg.Metrics))
	})
	mux.HandleFunc("/debug/vine", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(m.Debug())
	})
	srv := &http.Server{Handler: mux}
	m.goBG(func() { _ = srv.Serve(ln) })
	m.goBG(func() {
		<-m.loopDone
		// Best-effort teardown of the monitoring endpoint; closing the
		// server also unblocks the Serve goroutine above.
		_ = srv.Close()
	})
	return ln.Addr().String(), nil
}
