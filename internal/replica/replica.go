// Package replica implements the manager's two coordination tables (§3.3):
//
// The File Replica Table presents a unified view of cluster storage — which
// workers hold (or are acquiring) each data object — so the scheduler can
// locate files and place tasks near their data.
//
// The Current Transfer Table tracks every in-flight transfer under a UUID
// that the worker echoes back in its cache-update message. By observing how
// many concurrent connections each source is serving, the scheduler can
// enforce limits that prevent network hotspots.
package replica

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// ReplicaState tracks one worker's possession of one object.
type ReplicaState int

const (
	// Pending means a transfer or MiniTask is materializing the object at
	// the worker.
	Pending ReplicaState = iota
	// Ready means the worker reported the object present via cache-update.
	Ready
)

// Table is the File Replica Table. All methods are safe for concurrent use.
type Table struct {
	mu sync.Mutex
	// byFile maps cache name -> worker ID -> state.
	byFile map[string]map[string]ReplicaState // guarded by mu
	// byWorker maps worker ID -> set of cache names (any state).
	byWorker map[string]map[string]bool // guarded by mu
}

// NewTable returns an empty replica table.
func NewTable() *Table {
	return &Table{
		byFile:   make(map[string]map[string]ReplicaState),
		byWorker: make(map[string]map[string]bool),
	}
}

// Add records that worker is acquiring (state Pending) or holds (Ready)
// the object.
func (t *Table) Add(file, worker string, state ReplicaState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byFile[file] == nil {
		t.byFile[file] = make(map[string]ReplicaState)
	}
	t.byFile[file][worker] = state
	if t.byWorker[worker] == nil {
		t.byWorker[worker] = make(map[string]bool)
	}
	t.byWorker[worker][file] = true
}

// Commit promotes a pending replica to ready, typically on receipt of a
// cache-update message. Committing an unknown replica records it ready:
// workers may acquire objects the manager did not direct (e.g. adopted
// from a previous workflow's persistent cache).
func (t *Table) Commit(file, worker string) {
	t.Add(file, worker, Ready)
}

// Remove deletes one worker's replica of an object (deletion, eviction, or
// failed transfer).
func (t *Table) Remove(file, worker string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m := t.byFile[file]; m != nil {
		delete(m, worker)
		if len(m) == 0 {
			delete(t.byFile, file)
		}
	}
	if m := t.byWorker[worker]; m != nil {
		delete(m, file)
	}
}

// DropWorker removes every replica held by a departed worker and returns
// the affected cache names, so the manager can re-create files that lost
// their last replica.
func (t *Table) DropWorker(worker string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var affected []string
	for file := range t.byWorker[worker] {
		affected = append(affected, file)
		if m := t.byFile[file]; m != nil {
			delete(m, worker)
			if len(m) == 0 {
				delete(t.byFile, file)
			}
		}
	}
	delete(t.byWorker, worker)
	return affected
}

// Has reports whether worker holds a ready replica of file.
func (t *Table) Has(file, worker string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	// A missing key yields the zero value Pending, which is not Ready.
	return t.byFile[file][worker] == Ready
}

// HasAny reports whether worker holds or is acquiring the file.
func (t *Table) HasAny(file, worker string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.byFile[file][worker]
	return ok
}

// Locate returns the workers holding ready replicas of file.
func (t *Table) Locate(file string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for w, s := range t.byFile[file] {
		if s == Ready {
			out = append(out, w)
		}
	}
	return out
}

// CountReplicas returns the number of ready replicas of file.
func (t *Table) CountReplicas(file string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.byFile[file] {
		if s == Ready {
			n++
		}
	}
	return n
}

// FilesOn returns every cache name recorded at the worker (any state).
func (t *Table) FilesOn(worker string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for f := range t.byWorker[worker] {
		out = append(out, f)
	}
	return out
}

// ReadyFilesOn counts the worker's ready replicas (excluding pending
// transfers and materializations).
func (t *Table) ReadyFilesOn(worker string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for f := range t.byWorker[worker] {
		if t.byFile[f][worker] == Ready {
			n++
		}
	}
	return n
}

// FileReplicas is one file's row in a full-table snapshot.
type FileReplicas struct {
	File    string   `json:"file"`
	Ready   []string `json:"ready,omitempty"`
	Pending []string `json:"pending,omitempty"`
}

// Snapshot returns the whole table sorted by file name, with each file's
// ready and pending holders sorted — the operator-facing dump behind the
// manager's /debug/vine endpoint.
func (t *Table) Snapshot() []FileReplicas {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]FileReplicas, 0, len(t.byFile))
	for file, holders := range t.byFile {
		fr := FileReplicas{File: file}
		for w, s := range holders {
			if s == Ready {
				fr.Ready = append(fr.Ready, w)
			} else {
				fr.Pending = append(fr.Pending, w)
			}
		}
		sort.Strings(fr.Ready)
		sort.Strings(fr.Pending)
		out = append(out, fr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].File < out[j].File })
	return out
}

// SourceKind distinguishes where a transfer's bytes come from.
type SourceKind int

const (
	// SourceURL is a remote data service outside the cluster.
	SourceURL SourceKind = iota
	// SourceManager is the manager process itself.
	SourceManager
	// SourceWorker is a peer worker's cache.
	SourceWorker
)

// String returns a readable name for the source kind.
func (k SourceKind) String() string {
	switch k {
	case SourceURL:
		return "url"
	case SourceManager:
		return "manager"
	case SourceWorker:
		return "worker"
	default:
		return fmt.Sprintf("source(%d)", int(k))
	}
}

// Source identifies one endpoint that can supply bytes: a URL, the manager,
// or a specific worker.
type Source struct {
	Kind SourceKind
	// ID is the URL string, "manager", or the worker ID.
	ID string
}

// Transfer is one in-flight, manager-supervised movement of an object.
type Transfer struct {
	ID     string
	File   string
	Source Source
	Dest   string // worker ID
}

// Transfers is the Current Transfer Table.
type Transfers struct {
	mu       sync.Mutex
	inflight map[string]Transfer // guarded by mu
	bySource map[Source]int      // guarded by mu
	byDest   map[string]int      // guarded by mu
	// byFileDest indexes in-flight transfer counts per (file, destination)
	// so Pending is a lookup, not a scan over every transfer; byFile keeps
	// the per-file total for InFlightOf. Both are hot-path queries: the
	// scheduler consults them for every input of every task it plans.
	byFileDest map[fileDest]int // guarded by mu
	byFile     map[string]int   // guarded by mu
	nextID     func() string    // guarded by mu
}

type fileDest struct{ file, dest string }

// NewTransfers returns an empty transfer table.
func NewTransfers() *Transfers {
	return &Transfers{
		inflight:   make(map[string]Transfer),
		bySource:   make(map[Source]int),
		byDest:     make(map[string]int),
		byFileDest: make(map[fileDest]int),
		byFile:     make(map[string]int),
		nextID:     randomUUID,
	}
}

// track adjusts every index for one transfer by delta (+1 start, -1 end).
// The caller holds t.mu.
func (t *Transfers) track(tr Transfer, delta int) {
	t.bySource[tr.Source] += delta
	if t.bySource[tr.Source] <= 0 {
		delete(t.bySource, tr.Source)
	}
	t.byDest[tr.Dest] += delta
	if t.byDest[tr.Dest] <= 0 {
		delete(t.byDest, tr.Dest)
	}
	fd := fileDest{tr.File, tr.Dest}
	t.byFileDest[fd] += delta
	if t.byFileDest[fd] <= 0 {
		delete(t.byFileDest, fd)
	}
	t.byFile[tr.File] += delta
	if t.byFile[tr.File] <= 0 {
		delete(t.byFile, tr.File)
	}
}

func randomUUID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("replica: crypto/rand unavailable: " + err.Error())
	}
	// RFC 4122 version 4 variant bits, for operator familiarity.
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	// Format 8-4-4-4-12 hex digits in place: one allocation, the string.
	var s [36]byte
	hex.Encode(s[0:8], b[0:4])
	s[8] = '-'
	hex.Encode(s[9:13], b[4:6])
	s[13] = '-'
	hex.Encode(s[14:18], b[6:8])
	s[18] = '-'
	hex.Encode(s[19:23], b[8:10])
	s[23] = '-'
	hex.Encode(s[24:36], b[10:16])
	return string(s[:])
}

// Start records a new transfer and returns its UUID, which the instructed
// worker must echo in its cache-update message.
func (t *Transfers) Start(file string, src Source, dest string) Transfer {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := Transfer{ID: t.nextID(), File: file, Source: src, Dest: dest}
	t.inflight[tr.ID] = tr
	t.track(tr, 1)
	return tr
}

// Complete removes a finished transfer by UUID, returning its record.
func (t *Transfers) Complete(id string) (Transfer, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.inflight[id]
	if !ok {
		return Transfer{}, false
	}
	delete(t.inflight, id)
	t.track(tr, -1)
	return tr, true
}

// InFlightFrom returns how many concurrent transfers the source is serving.
func (t *Transfers) InFlightFrom(src Source) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bySource[src]
}

// InFlightTo returns how many concurrent transfers the worker is receiving.
func (t *Transfers) InFlightTo(dest string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byDest[dest]
}

// Pending reports whether a transfer of file to dest is already in flight,
// so the scheduler does not issue duplicates. O(1) via the per-file index.
func (t *Transfers) Pending(file, dest string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byFileDest[fileDest{file, dest}] > 0
}

// InFlightOf returns how many transfers of the file are in flight to any
// destination. O(1) via the per-file index.
func (t *Transfers) InFlightOf(file string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byFile[file]
}

// DropWorker cancels all transfers to or from a departed worker, returning
// the cancelled records so the manager can repair state.
func (t *Transfers) DropWorker(worker string) []Transfer {
	t.mu.Lock()
	defer t.mu.Unlock()
	var cancelled []Transfer
	for id, tr := range t.inflight {
		if tr.Dest == worker || (tr.Source.Kind == SourceWorker && tr.Source.ID == worker) {
			cancelled = append(cancelled, tr)
			delete(t.inflight, id)
			t.track(tr, -1)
		}
	}
	return cancelled
}

// All returns every in-flight transfer, sorted by (file, destination, ID)
// for stable display.
func (t *Transfers) All() []Transfer {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Transfer, 0, len(t.inflight))
	for _, tr := range t.inflight {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Dest != out[j].Dest {
			return out[i].Dest < out[j].Dest
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len returns the number of in-flight transfers.
func (t *Transfers) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.inflight)
}
