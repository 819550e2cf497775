package policy

import (
	"sort"

	"taskvine/internal/intern"
	"taskvine/internal/metrics"
	"taskvine/internal/replica"
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
	// an input, by file handle; hot holds the files at or above
	// spec.FanoutThreshold, kept sorted by file ID so planning order does
	// not depend on handle order.
	consumers []int32
	hot       []replica.FileH
	// records holds one entry per unresolved placement transfer; charged
	// sums their budget charges per destination worker handle.
	records map[placeKey]*placeRecord
	charged []int64
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
	FileNeeds(f replica.FileH) []FileNeed
	// ProducerWorker returns the worker assigned the task that produces
	// f while that task is staging or running, and zero otherwise.
	ProducerWorker(f replica.FileH) replica.WorkerH
	// DiskCapacity returns a worker's disk bytes; zero or less means the
	// worker reports none and its placement budget is unlimited.
	DiskCapacity(w replica.WorkerH) int64
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
		spec:    spec.WithDefaults(),
		vm:      vm,
		view:    view,
		records: map[placeKey]*placeRecord{},
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

// Consume moves one consumer task in (delta +1) or out (-1) of f's
// count and keeps the hot set exact. Callers count a task once per file,
// however many times it lists the file.
func (l *Lookahead) Consume(f replica.FileH, delta int) {
	if l == nil {
		return
	}
	l.consumers = intern.Grow(l.consumers, f)
	l.consumers[f] += int32(delta)
	hot := int(l.consumers[f]) >= l.spec.FanoutThreshold
	files := &l.view.Reps.Names().Files
	name := files.Name(f)
	i := sort.Search(len(l.hot), func(i int) bool { return files.Name(l.hot[i]) >= name })
	switch was := i < len(l.hot) && l.hot[i] == f; {
	case hot && !was:
		l.hot = append(l.hot, 0)
		copy(l.hot[i+1:], l.hot[i:])
		l.hot[i] = f
	case !hot && was:
		l.hot = append(l.hot[:i], l.hot[i+1:]...)
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
			if n.FixedSource.IsZero() && l.view.Reps.CountReplicas(n.ID) == 0 {
				n.BornAt = s.ProducerWorker(n.ID)
			}
		}
		tasks = append(tasks, PlacementTask{ID: id, Needs: needs})
	}
	l.taskBuf = tasks
	// Hot files in ID order, for deterministic planning.
	hot := l.hotBuf[:0]
	for _, f := range l.hot {
		needs := s.FileNeeds(f)
		if len(needs) != 1 || needs[0].ID != f {
			continue // left out by the substrate, or an unmaterialized MiniTask product
		}
		hot = append(hot, HotFile{Need: needs[0], Consumers: int(l.consumers[f])})
	}
	l.hotBuf = hot

	budget := func(w replica.WorkerH) int64 {
		disk := s.DiskCapacity(w)
		if disk <= 0 {
			return -1
		}
		return max(int64(l.spec.DiskFraction*float64(disk))-l.Charged(w), 0)
	}
	for _, a := range PlanPlacement(l.spec, tasks, hot, workers, limits, budget, l.view) {
		if !s.StartPlacement(a) {
			continue // refused or failed to start: nothing was issued
		}
		charged := max(a.Size, 0)
		l.records[placeKey{a.File, a.Dest}] = &placeRecord{kind: a.Kind, charged: charged}
		l.charged = intern.Grow(l.charged, a.Dest)
		l.charged[a.Dest] += charged
		if a.Kind == PlaceReplicate {
			l.vm.PlacementReplicas.Inc()
		} else {
			l.vm.PlacementPrefetches.Inc()
		}
	}
}

// record returns the unresolved placement of f toward w, or nil.
func (l *Lookahead) record(f replica.FileH, w replica.WorkerH) *placeRecord {
	if l == nil || len(l.records) == 0 {
		return nil
	}
	return l.records[placeKey{f, w}]
}

// take removes a placement's record, if any, and releases its budget
// charge.
func (l *Lookahead) take(f replica.FileH, w replica.WorkerH) *placeRecord {
	rec := l.record(f, w)
	if rec == nil {
		return nil
	}
	delete(l.records, placeKey{f, w})
	l.charged[w] -= rec.charged
	return rec
}

// Use resolves a placement as a hit: a consumer of the file was dispatched
// to (or materializes a MiniTask product on) the worker it targeted.
func (l *Lookahead) Use(f replica.FileH, w replica.WorkerH) {
	switch rec := l.take(f, w); {
	case rec == nil:
	case rec.kind == PlaceReplicate:
		l.vm.PlacementReplicaHits.Inc()
	default:
		l.vm.PlacementPrefetchHits.Inc()
	}
}

// Landed marks a placement's object as committed at its destination.
func (l *Lookahead) Landed(f replica.FileH, w replica.WorkerH) {
	if rec := l.record(f, w); rec != nil {
		rec.landed = true
	}
}

// Failed resolves a placement whose transfer failed before landing.
func (l *Lookahead) Failed(f replica.FileH, w replica.WorkerH) {
	if rec := l.record(f, w); rec != nil && !rec.landed {
		l.take(f, w)
		l.vm.PlacementFailures.Inc()
	}
}

// Gone resolves a placement whose object disappeared unconsumed (evicted,
// deleted, garbage-collected, or lost with its worker): landed objects are
// wasted bytes, un-landed ones failures.
func (l *Lookahead) Gone(f replica.FileH, w replica.WorkerH) {
	switch rec := l.take(f, w); {
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
func (l *Lookahead) DropWorker(w replica.WorkerH) {
	if l == nil {
		return
	}
	for k := range l.records {
		if k.dest == w {
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
func (l *Lookahead) Charged(w replica.WorkerH) int64 {
	if l == nil || int(w) >= len(l.charged) {
		return 0
	}
	return l.charged[w]
}
