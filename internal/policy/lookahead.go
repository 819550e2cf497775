package policy

import (
	"sort"

	"taskvine/internal/metrics"
	"taskvine/internal/resources"
)

// Lookahead is the stateful half of lookahead placement: the one engine
// that both the manager and the simulator run around PlanPlacement. It
// owns the per-file consumer counts and the hot set, builds each pass's
// planner input, and keeps one record per issued placement transfer until
// that transfer resolves exactly once:
//
//   - hit: a task (or MiniTask materialization) consuming the file is
//     dispatched to the destination worker;
//   - failure: the transfer fails before the object lands, or the object
//     disappears before it ever landed;
//   - waste: the landed object is evicted, deleted, lost with its worker,
//     or anything still unresolved when the workflow ends (Flush).
//
// The conservation law issued == hits + failures + wastes + Outstanding()
// is pinned by both substrates' chaos suites. A nil *Lookahead is
// placement off: every method is then a no-op, so callers need no guard.
type Lookahead struct {
	spec PlacementSpec
	vm   *metrics.VineMetrics
	view *View
	// consumers counts the waiting and staging tasks listing each file as
	// an input; hot holds the files at or above spec.FanoutThreshold.
	consumers map[string]int
	hot       map[string]bool
	// records holds one entry per unresolved placement transfer; charged
	// sums their budget charges per destination worker.
	records map[placeKey]*placeRecord
	charged map[string]int64
	// scratch reused across passes.
	taskBuf []PlacementTask
	hotBuf  []HotFile
}

// placeRecord is one unresolved placement: its kind, the bytes charged to
// its destination's budget (zero when the size was unknown), and whether
// the object landed, which makes an unconsumed loss waste rather than
// failure.
type placeRecord struct {
	kind    PlacementKind
	charged int64
	landed  bool
}

// Substrate is what a scheduler supplies to the Lookahead: its
// view of queued tasks and files, its workers' disks, and its transfer
// machinery.
type Substrate interface {
	// QueuedNeeds returns the inputs queued task id would gather, or nil
	// when the task is no longer waiting.
	QueuedNeeds(id int) []FileNeed
	// FileNeeds returns one file's needs as the substrate's demand staging
	// would expand them, leaving out what placement must not copy.
	FileNeeds(fileID string) []FileNeed
	// ProducerWorker returns the worker assigned the task that produces
	// fileID while that task is staging or running, and "" otherwise.
	ProducerWorker(fileID string) string
	// DiskCapacity returns a worker's disk bytes; zero or less means the
	// worker reports none and its placement budget is unlimited.
	DiskCapacity(workerID string) int64
	// StartPlacement issues one planned transfer through the substrate's
	// supervised transfer path and reports whether it is now in flight.
	StartPlacement(a PlacementAction) bool
}

// NewLookahead returns the placement engine for spec, counting into vm and
// reading the cluster through view; nil when spec is disabled.
func NewLookahead(spec PlacementSpec, vm *metrics.VineMetrics, view *View) *Lookahead {
	if !spec.Enabled {
		return nil
	}
	return &Lookahead{
		spec:      spec.WithDefaults(),
		vm:        vm,
		view:      view,
		consumers: map[string]int{},
		hot:       map[string]bool{},
		records:   map[placeKey]*placeRecord{},
		charged:   map[string]int64{},
	}
}

// Pick chooses the worker a task dispatches to. With placement off it is
// BestWorker. With it on, input bytes already on their way to a worker
// count toward locality like bytes landed: placement moves inputs ahead of
// dispatch, so dispatch must credit those arrivals, or it races the
// speculative transfers placement asked for and strands them.
func (l *Lookahead) Pick(needs []FileNeed, req resources.R, workers []WorkerInfo, v *View) (WorkerInfo, bool) {
	return bestWorker(needs, req, workers, v, l != nil)
}

// Consume moves one consumer task in (delta +1) or out (-1) of fileID's
// count and keeps the hot set exact. Callers count a task once per file,
// however many times it lists the file.
func (l *Lookahead) Consume(fileID string, delta int) {
	if l == nil {
		return
	}
	l.consumers[fileID] += delta
	n := l.consumers[fileID]
	if n <= 0 {
		delete(l.consumers, fileID)
	}
	if n >= l.spec.FanoutThreshold {
		l.hot[fileID] = true
	} else {
		delete(l.hot, fileID)
	}
}

// Pass plans and issues one scheduling pass's speculative transfers. It
// runs at the tail of the pass, after assignment and dispatch, given the
// live workers in join order and the waiting queue in queue order. It
// reads a bounded prefix of the queue plus the hot set: O(lookahead), not
// O(waiting).
func (l *Lookahead) Pass(s Substrate, workers []WorkerInfo, waiting []int, limits Limits) {
	if l == nil || len(workers) == 0 {
		return
	}
	// The scan cap bounds pass cost; later passes re-offer anything beyond
	// it once the front drains.
	scanCap := max(l.spec.LookaheadPerWorker*len(workers)*4, 16)
	tasks := l.taskBuf[:0]
	for _, id := range waiting[:min(scanCap, len(waiting))] {
		needs := s.QueuedNeeds(id)
		if len(needs) == 0 {
			continue
		}
		// An input that does not exist yet but whose producer is assigned
		// is born at that worker: the gather planner aims fan-in siblings
		// there.
		for i := range needs {
			n := &needs[i]
			if n.FixedSource == nil && l.view.Reps.CountReplicas(n.ID) == 0 {
				n.BornAt = s.ProducerWorker(n.ID)
			}
		}
		tasks = append(tasks, PlacementTask{ID: id, Needs: needs})
	}
	l.taskBuf = tasks
	// Hot files sorted by ID for deterministic planning.
	ids := make([]string, 0, len(l.hot))
	for fid := range l.hot {
		ids = append(ids, fid)
	}
	sort.Strings(ids)
	hot := l.hotBuf[:0]
	for _, fid := range ids {
		needs := s.FileNeeds(fid)
		if len(needs) != 1 || needs[0].ID != fid {
			continue // left out by the substrate, or an unmaterialized MiniTask product
		}
		hot = append(hot, HotFile{Need: needs[0], Consumers: l.consumers[fid]})
	}
	l.hotBuf = hot

	budget := func(workerID string) int64 {
		disk := s.DiskCapacity(workerID)
		if disk <= 0 {
			return -1
		}
		return max(int64(l.spec.DiskFraction*float64(disk))-l.charged[workerID], 0)
	}
	for _, a := range PlanPlacement(l.spec, tasks, hot, workers, limits, budget, l.view) {
		if !s.StartPlacement(a) {
			continue // refused or failed to start: nothing was issued
		}
		charged := max(a.Size, 0)
		l.records[placeKey{a.File, a.Dest}] = &placeRecord{kind: a.Kind, charged: charged}
		l.charged[a.Dest] += charged
		if a.Kind == PlaceReplicate {
			l.vm.PlacementReplicas.Inc()
		} else {
			l.vm.PlacementPrefetches.Inc()
		}
	}
}

// record returns the unresolved placement of fileID toward workerID, or
// nil.
func (l *Lookahead) record(fileID, workerID string) *placeRecord {
	if l == nil {
		return nil
	}
	return l.records[placeKey{fileID, workerID}]
}

// take removes a placement's record, if any, and releases its budget
// charge.
func (l *Lookahead) take(fileID, workerID string) *placeRecord {
	rec := l.record(fileID, workerID)
	if rec == nil {
		return nil
	}
	delete(l.records, placeKey{fileID, workerID})
	if l.charged[workerID] -= rec.charged; l.charged[workerID] <= 0 {
		delete(l.charged, workerID)
	}
	return rec
}

// Use resolves a placement as a hit: a consumer of the file was dispatched
// to (or materializes a MiniTask product on) the worker it targeted.
func (l *Lookahead) Use(fileID, workerID string) {
	switch rec := l.take(fileID, workerID); {
	case rec == nil:
	case rec.kind == PlaceReplicate:
		l.vm.PlacementReplicaHits.Inc()
	default:
		l.vm.PlacementPrefetchHits.Inc()
	}
}

// Landed marks a placement's object as committed at its destination.
func (l *Lookahead) Landed(fileID, workerID string) {
	if rec := l.record(fileID, workerID); rec != nil {
		rec.landed = true
	}
}

// Failed resolves a placement whose transfer failed before landing.
func (l *Lookahead) Failed(fileID, workerID string) {
	if rec := l.record(fileID, workerID); rec != nil && !rec.landed {
		l.take(fileID, workerID)
		l.vm.PlacementFailures.Inc()
	}
}

// Gone resolves a placement whose object disappeared unconsumed (evicted,
// deleted, garbage-collected, or lost with its worker): landed objects are
// wasted bytes, un-landed ones failures.
func (l *Lookahead) Gone(fileID, workerID string) {
	switch rec := l.take(fileID, workerID); {
	case rec == nil:
	case rec.landed:
		l.waste(rec)
	default:
		l.vm.PlacementFailures.Inc()
	}
}

// waste counts a resolved record as wasted, with its bytes if they landed.
func (l *Lookahead) waste(rec *placeRecord) {
	l.vm.PlacementWastes.Inc()
	if rec.landed {
		l.vm.PlacementWasteBytes.Add(rec.charged)
	}
}

// DropWorker resolves every record targeting a departed worker as Gone.
// Records resolve independently into commuting counters, so map order is
// as good as any.
func (l *Lookahead) DropWorker(workerID string) {
	if l == nil {
		return
	}
	for k := range l.records {
		if k.dest == workerID {
			l.Gone(k.file, k.dest)
		}
	}
}

// Flush resolves every outstanding record as waste; substrates call it
// when the workflow ends so the conservation law closes with nothing
// outstanding.
func (l *Lookahead) Flush() {
	if l == nil {
		return
	}
	for k := range l.records {
		l.waste(l.take(k.file, k.dest))
	}
}

// Outstanding reports placement transfers not yet resolved as a hit,
// waste, or failure.
func (l *Lookahead) Outstanding() int {
	if l == nil {
		return 0
	}
	return len(l.records)
}

// Charged reports the bytes unresolved placements hold against a worker's
// budget.
func (l *Lookahead) Charged(workerID string) int64 {
	if l == nil {
		return 0
	}
	return l.charged[workerID]
}
