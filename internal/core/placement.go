package core

import (
	"taskvine/internal/files"
	"taskvine/internal/policy"
	"taskvine/internal/replica"
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

func (h placementHost) FileNeeds(f replica.FileH) []policy.FileNeed {
	return h.needs([]taskspec.Mount{{FileID: h.m.fileID(f)}})
}

// needs builds placement needs for mounts, dropping handles: a resident
// handle is pinned to its holder and chained calls route there, so copying
// it speculatively would fight the affinity that makes handles cheap.
func (h placementHost) needs(mounts []taskspec.Mount) []policy.FileNeed {
	needs := h.m.fileNeeds(mounts)
	kept := needs[:0]
	for _, n := range needs {
		if f, ok := h.m.reg.Lookup(h.m.fileID(n.ID)); ok && f.Type == files.Handle {
			continue
		}
		kept = append(kept, n)
	}
	return kept
}

func (h placementHost) ProducerWorker(f replica.FileH) replica.WorkerH {
	prodID, ok := h.m.reg.Producer(h.m.fileID(f))
	if !ok {
		return 0
	}
	t := h.m.taskByID(prodID)
	if t == nil || (t.state != taskspec.StateStaging && t.state != taskspec.StateRunning) {
		return 0
	}
	return h.m.wh(t.worker)
}

func (h placementHost) DiskCapacity(w replica.WorkerH) int64 {
	if w := h.m.workerAt(w); w != nil {
		return w.capacity.Disk
	}
	return 0
}

// StartPlacement skips destinations inside their transfer backoff window;
// a transfer that fails to start (send error, injected fault) has already
// run its failure path and is not pending.
func (h placementHost) StartPlacement(a policy.PlacementAction) bool {
	m := h.m
	w := m.workerAt(a.Dest)
	if w == nil || w.gone || m.transferBlocked(m.fileID(a.File), w.id) {
		return false
	}
	m.startTransfer(m.fileID(a.File), a.Source, w, "placement:"+a.Kind.String())
	return m.trs.Pending(a.File, a.Dest)
}
