// Package replica implements the manager's two coordination tables (§3.3):
// the File Replica Table, which workers hold (or are acquiring) each data
// object, and the Current Transfer Table, every in-flight transfer and how
// many each source serves, so the scheduler can place tasks near their
// data without creating network hotspots.
//
// Both are keyed on dense handles that a Names interns once at the boundary,
// so every query indexes a slice. Each table has one owner, the manager's
// event loop or the simulator, and takes no lock.
package replica

import (
	"fmt"
	"slices"
	"sort"

	"taskvine/internal/intern"
)

// FileH is a file's dense handle; WorkerH is a worker's. Handles count
// from 1 in the order names were first interned, so the zero handle names
// nothing, and a worker that re-registers under the same ID keeps its
// handle.
type (
	FileH   int32
	WorkerH int32
)

// Names holds the interners one owner's tables share.
type Names struct {
	Files   intern.Table[FileH]
	Workers intern.Table[WorkerH]
	// Sources interns fixed sources (URLs, shared-filesystem paths, the
	// manager) by name.
	Sources intern.Table[int32]
}

// NewNames returns empty interners.
func NewNames() *Names { return &Names{} }

// FixedSource returns the fixed source of the given kind and name.
func (n *Names) FixedSource(kind SourceKind, name string) Source {
	return Source{Kind: kind, ID: n.Sources.Intern(name)}
}

// SourceName returns a source's worker ID or fixed-source name.
func (n *Names) SourceName(s Source) string {
	if s.Kind == SourceWorker {
		return n.Workers.Name(WorkerH(s.ID))
	}
	return n.Sources.Name(s.ID)
}

// ReplicaState tracks one worker's possession of one object.
type ReplicaState uint8

const (
	// Pending means a transfer or MiniTask is materializing the object at
	// the worker.
	Pending ReplicaState = iota
	// Ready means the worker reported the object present via cache-update.
	Ready
)

// holder is one worker's replica in a file's row.
type holder struct {
	w     WorkerH
	state ReplicaState
}

// row is one file's replicas, sorted by worker handle, and its ready count.
type row struct {
	holders []holder
	ready   int32
}

// find returns where worker w is, or would be inserted, in the row.
func (r *row) find(w WorkerH) (int, bool) {
	lo, hi := 0, len(r.holders)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.holders[m].w < w {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(r.holders) && r.holders[lo].w == w
}

// Table is the File Replica Table: one row per file handle, so every
// per-input query is a slice index and a search of that file's holders.
type Table struct {
	names   *Names
	rows    []row   // by FileH
	readyOn []int32 // ready replicas per WorkerH
	// Changed, when set, is called with a file's handle after every Add,
	// Commit or Remove of it and for each file DropWorker affects: the one
	// hook a scheduler needs to learn that a plan reading the file may
	// change.
	Changed func(FileH)
}

// NewTable returns an empty replica table over the given names.
func NewTable(names *Names) *Table { return &Table{names: names} }

// Names returns the interners the table's handles come from.
func (t *Table) Names() *Names { return t.names }

func (t *Table) row(f FileH) *row {
	if int(f) >= len(t.rows) {
		return nil
	}
	return &t.rows[f]
}

// Add records that worker is acquiring (state Pending) or holds (Ready)
// the object.
func (t *Table) Add(f FileH, w WorkerH, state ReplicaState) {
	t.rows = intern.Grow(t.rows, f)
	t.readyOn = intern.Grow(t.readyOn, w)
	r := &t.rows[f]
	i, ok := r.find(w)
	if !ok {
		r.holders = append(r.holders, holder{})
		copy(r.holders[i+1:], r.holders[i:])
		r.holders[i] = holder{w: w, state: Pending}
	}
	if h := &r.holders[i]; h.state != state {
		d := int32(1)
		if state != Ready {
			d = -1
		}
		h.state = state
		r.ready += d
		t.readyOn[w] += d
	}
	t.changed(f)
}

func (t *Table) changed(f FileH) {
	if t.Changed != nil {
		t.Changed(f)
	}
}

// Commit promotes a pending replica to ready, typically on receipt of a
// cache-update message. Committing an unknown replica records it ready:
// workers may acquire objects the manager did not direct (e.g. adopted
// from a previous workflow's persistent cache).
func (t *Table) Commit(f FileH, w WorkerH) { t.Add(f, w, Ready) }

// Remove deletes one worker's replica of an object (deletion, eviction, or
// failed transfer).
func (t *Table) Remove(f FileH, w WorkerH) {
	if r := t.row(f); r != nil {
		t.remove(r, w)
	}
	t.changed(f)
}

func (t *Table) remove(r *row, w WorkerH) bool {
	i, ok := r.find(w)
	if !ok {
		return false
	}
	if r.holders[i].state == Ready {
		r.ready--
		t.readyOn[w]--
	}
	r.holders = append(r.holders[:i], r.holders[i+1:]...)
	return true
}

// DropWorker removes every replica held by a departed worker and returns
// the affected files sorted by file ID, so the manager can re-create files
// that lost their last replica in an order independent of handles. It
// scans every file: departures are rare.
func (t *Table) DropWorker(w WorkerH) []FileH {
	var affected []FileH
	for f := range t.rows {
		if t.remove(&t.rows[f], w) {
			affected = append(affected, FileH(f))
			t.changed(FileH(f))
		}
	}
	files := &t.names.Files
	sort.Slice(affected, func(i, j int) bool { // hotpath-ok: runs only on worker departure, over the departed worker's files
		return files.Name(affected[i]) < files.Name(affected[j])
	})
	return affected
}

// State returns the worker's replica state for the file, and whether it
// has one at all.
func (t *Table) State(f FileH, w WorkerH) (ReplicaState, bool) {
	if r := t.row(f); r != nil {
		if i, ok := r.find(w); ok {
			return r.holders[i].state, true
		}
	}
	return Pending, false
}

// Has reports whether worker holds a ready replica of file.
func (t *Table) Has(f FileH, w WorkerH) bool {
	s, ok := t.State(f, w)
	return ok && s == Ready
}

// HasAny reports whether worker holds or is acquiring the file.
func (t *Table) HasAny(f FileH, w WorkerH) bool {
	_, ok := t.State(f, w)
	return ok
}

// Locate returns the workers holding ready replicas of file, in handle
// order.
func (t *Table) Locate(f FileH) []WorkerH { return t.AppendLocate(nil, f) }

// AppendLocate appends Locate's result to dst, so a hot caller can reuse
// one buffer.
func (t *Table) AppendLocate(dst []WorkerH, f FileH) []WorkerH {
	if r := t.row(f); r != nil {
		for _, h := range r.holders {
			if h.state == Ready {
				dst = append(dst, h.w)
			}
		}
	}
	return dst
}

// CountReplicas returns the number of ready replicas of file.
func (t *Table) CountReplicas(f FileH) int {
	if r := t.row(f); r != nil {
		return int(r.ready)
	}
	return 0
}

// ReadyFilesOn counts the worker's ready replicas (excluding pending
// transfers and materializations).
func (t *Table) ReadyFilesOn(w WorkerH) int {
	if int(w) >= len(t.readyOn) {
		return 0
	}
	return int(t.readyOn[w])
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
	var out []FileReplicas
	for f := range t.rows {
		r := &t.rows[f]
		if len(r.holders) == 0 {
			continue
		}
		fr := FileReplicas{File: t.names.Files.Name(FileH(f))}
		for _, h := range r.holders {
			name := t.names.Workers.Name(h.w)
			if h.state == Ready {
				fr.Ready = append(fr.Ready, name)
			} else {
				fr.Pending = append(fr.Pending, name)
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
// or a specific worker. The zero Source is no source.
type Source struct {
	Kind SourceKind
	// ID is the worker's handle for SourceWorker, else the fixed source's
	// handle in Names.Sources.
	ID int32
}

// WorkerSource returns the source that is worker w's cache.
func WorkerSource(w WorkerH) Source { return Source{Kind: SourceWorker, ID: int32(w)} }

// Worker returns a worker source's handle, zero for a fixed source.
func (s Source) Worker() WorkerH {
	if s.Kind != SourceWorker {
		return 0
	}
	return WorkerH(s.ID)
}

// IsZero reports whether s is no source.
func (s Source) IsZero() bool { return s.ID == 0 }

// TransferID names one transfer for its lifetime: its slot in the table in
// the low 32 bits and a sequence number above, so an ID that outlives its
// transfer never resolves to the slot's next occupant.
type TransferID uint64

// Transfer is one in-flight, manager-supervised movement of an object.
type Transfer struct {
	ID     TransferID
	File   FileH
	Source Source
	Dest   WorkerH
}

// Transfers is the Current Transfer Table.
type Transfers struct {
	names *Names
	// slots holds the in-flight transfers; a zero ID marks a free slot,
	// and free lists them for reuse. seq numbers the transfers started.
	slots []Transfer
	free  []int32
	seq   uint32
	n     int
	// Per-handle counts. byFile lists each in-flight transfer's destination
	// under its file, so Pending and InFlightOf scan only that file's
	// transfers: the scheduler consults them for every input it plans.
	fromWorker []int32    // by WorkerH
	fromFixed  [2][]int32 // by kind (URL, manager), then source handle
	toWorker   []int32    // by WorkerH
	byFile     [][]WorkerH
	// Changed, when set, is called after a transfer starts (ended false)
	// and after it completes or is cancelled (ended true).
	Changed func(tr Transfer, ended bool)
}

// NewTransfers returns an empty transfer table over the given names.
func NewTransfers(names *Names) *Transfers { return &Transfers{names: names} }

// track adjusts every index for one transfer by delta (+1 start, -1 end).
func (t *Transfers) track(tr Transfer, delta int32) {
	from := t.fromCounts(tr.Source)
	*from = intern.Grow(*from, tr.Source.ID)
	(*from)[tr.Source.ID] += delta
	t.toWorker = intern.Grow(t.toWorker, tr.Dest)
	t.toWorker[tr.Dest] += delta
	t.byFile = intern.Grow(t.byFile, tr.File)
	dests := t.byFile[tr.File]
	if delta > 0 {
		t.byFile[tr.File] = append(dests, tr.Dest)
	} else {
		i := slices.Index(dests, tr.Dest)
		t.byFile[tr.File] = slices.Delete(dests, i, i+1)
	}
}

// Start records a new transfer and returns it; its ID resolves the
// instructed worker's report back to this record.
func (t *Transfers) Start(f FileH, src Source, dest WorkerH) Transfer {
	slot := int32(len(t.slots))
	if n := len(t.free); n > 0 {
		slot, t.free = t.free[n-1], t.free[:n-1]
	} else {
		t.slots = append(t.slots, Transfer{})
	}
	t.seq++
	tr := Transfer{ID: TransferID(t.seq)<<32 | TransferID(slot), File: f, Source: src, Dest: dest}
	t.slots[slot] = tr
	t.n++
	t.track(tr, 1)
	if t.Changed != nil {
		t.Changed(tr, false)
	}
	return tr
}

// Complete removes a finished transfer by ID, returning its record.
func (t *Transfers) Complete(id TransferID) (Transfer, bool) {
	slot := int(uint32(id))
	if id == 0 || slot >= len(t.slots) || t.slots[slot].ID != id {
		return Transfer{}, false
	}
	tr := t.slots[slot]
	t.end(slot)
	return tr, true
}

func (t *Transfers) end(slot int) {
	tr := t.slots[slot]
	t.track(tr, -1)
	t.slots[slot] = Transfer{}
	t.free = append(t.free, int32(slot))
	t.n--
	if t.Changed != nil {
		t.Changed(tr, true)
	}
}

func (t *Transfers) fromCounts(src Source) *[]int32 {
	if src.Kind == SourceWorker {
		return &t.fromWorker
	}
	return &t.fromFixed[min(int(src.Kind), 1)]
}

// InFlightFrom returns how many concurrent transfers the source is serving.
func (t *Transfers) InFlightFrom(src Source) int {
	counts := *t.fromCounts(src)
	if int(src.ID) >= len(counts) {
		return 0
	}
	return int(counts[src.ID])
}

// InFlightTo returns how many concurrent transfers the worker is receiving.
func (t *Transfers) InFlightTo(dest WorkerH) int {
	if int(dest) >= len(t.toWorker) {
		return 0
	}
	return int(t.toWorker[dest])
}

// Pending reports whether a transfer of file to dest is already in flight,
// so the scheduler does not issue duplicates.
func (t *Transfers) Pending(f FileH, dest WorkerH) bool {
	return int(f) < len(t.byFile) && slices.Contains(t.byFile[f], dest)
}

// InFlightOf returns how many transfers of the file are in flight to any
// destination.
func (t *Transfers) InFlightOf(f FileH) int {
	if int(f) >= len(t.byFile) {
		return 0
	}
	return len(t.byFile[f])
}

// DropWorker cancels all transfers to or from a departed worker, returning
// the cancelled records in slot order so the manager can repair state.
func (t *Transfers) DropWorker(w WorkerH) []Transfer {
	var cancelled []Transfer
	for slot, tr := range t.slots {
		if tr.ID != 0 && (tr.Dest == w || tr.Source.Worker() == w) {
			cancelled = append(cancelled, tr)
			t.end(slot)
		}
	}
	return cancelled
}

// All returns every in-flight transfer, sorted by (file name, destination
// name, ID) for stable display.
func (t *Transfers) All() []Transfer {
	out := make([]Transfer, 0, t.n)
	for _, tr := range t.slots {
		if tr.ID != 0 {
			out = append(out, tr)
		}
	}
	files, workers := &t.names.Files, &t.names.Workers
	sort.Slice(out, func(i, j int) bool {
		if fi, fj := files.Name(out[i].File), files.Name(out[j].File); fi != fj {
			return fi < fj
		}
		if di, dj := workers.Name(out[i].Dest), workers.Name(out[j].Dest); di != dj {
			return di < dj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len returns the number of in-flight transfers.
func (t *Transfers) Len() int { return t.n }
