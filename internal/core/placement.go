package core

import (
	"taskvine/internal/files"
	"taskvine/internal/policy"
	"taskvine/internal/taskspec"
)

// placementHost is the manager's policy.Substrate: lookahead placement
// (m.place, a policy.Lookahead) runs at the tail of each scheduling pass,
// owned by the event loop like the rest of the scheduling state, and its
// transfers ride the same supervised machinery as demand staging, so
// retry, chaos injection, and trace semantics come for free.
type placementHost struct{ m *Manager }

// placeLookahead runs one lookahead placement pass unless placement is off
// or the manager is closing.
func (m *Manager) placeLookahead() {
	if m.place != nil && !m.closing {
		m.place.Pass(placementHost{m}, m.workerInfos(""), m.waiting, m.cfg.Limits)
	}
}

func (h placementHost) QueuedNeeds(id int) []policy.FileNeed {
	t := h.m.tasks[id]
	if t == nil || t.state != taskspec.StateWaiting {
		return nil
	}
	return h.needs(t.spec.Inputs)
}

func (h placementHost) FileNeeds(fileID string) []policy.FileNeed {
	return h.needs([]taskspec.Mount{{FileID: fileID}})
}

// needs builds placement needs for mounts, dropping handles: a resident
// handle is pinned to its holder and chained calls route there, so copying
// it speculatively would fight the affinity that makes handles cheap.
func (h placementHost) needs(mounts []taskspec.Mount) []policy.FileNeed {
	needs := h.m.fileNeeds(mounts)
	kept := needs[:0]
	for _, n := range needs {
		if f, ok := h.m.reg.Lookup(n.ID); ok && f.Type == files.Handle {
			continue
		}
		kept = append(kept, n)
	}
	return kept
}

func (h placementHost) ProducerWorker(fileID string) string {
	prodID, ok := h.m.reg.Producer(fileID)
	if !ok {
		return ""
	}
	t := h.m.taskByID(prodID)
	if t == nil || (t.state != taskspec.StateStaging && t.state != taskspec.StateRunning) {
		return ""
	}
	return t.worker
}

func (h placementHost) DiskCapacity(workerID string) int64 {
	if w := h.m.workers[workerID]; w != nil {
		return w.capacity.Disk
	}
	return 0
}

// StartPlacement skips destinations inside their transfer backoff window;
// a transfer that fails to start (send error, injected fault) has already
// run its failure path and is not pending.
func (h placementHost) StartPlacement(a policy.PlacementAction) bool {
	m := h.m
	w := m.workers[a.Dest]
	if w == nil || w.gone || m.transferBlocked(a.File, a.Dest) {
		return false
	}
	m.startTransfer(a.File, a.Source, w, "placement:"+a.Kind.String())
	return m.trs.Pending(a.File, a.Dest)
}
