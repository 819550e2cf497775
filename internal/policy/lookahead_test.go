package policy

import (
	"testing"

	"taskvine/internal/metrics"
	"taskvine/internal/replica"
	"taskvine/internal/resources"
)

// fakeSubstrate is a scripted Substrate over real replica tables: started
// placements become pending transfers, as they do in both real substrates.
type fakeSubstrate struct {
	v         *View
	queued    map[int][]FileNeed
	files     map[replica.FileH]FileNeed
	producers map[replica.FileH]replica.WorkerH
	disk      map[replica.WorkerH]int64
	refuse    map[replica.WorkerH]bool
	started   []PlacementAction
}

func newFakeSubstrate() *fakeSubstrate {
	return &fakeSubstrate{
		v:         newView(),
		queued:    map[int][]FileNeed{},
		files:     map[replica.FileH]FileNeed{},
		producers: map[replica.FileH]replica.WorkerH{},
		disk:      map[replica.WorkerH]int64{},
		refuse:    map[replica.WorkerH]bool{},
	}
}

func (f *fakeSubstrate) QueuedNeeds(id int) []FileNeed {
	return append([]FileNeed(nil), f.queued[id]...)
}

func (f *fakeSubstrate) FileNeeds(id replica.FileH) []FileNeed {
	if n, ok := f.files[id]; ok {
		return []FileNeed{n}
	}
	return nil
}

func (f *fakeSubstrate) ProducerWorker(id replica.FileH) replica.WorkerH { return f.producers[id] }
func (f *fakeSubstrate) DiskCapacity(w replica.WorkerH) int64            { return f.disk[w] }

func (f *fakeSubstrate) StartPlacement(a PlacementAction) bool {
	if f.refuse[a.Dest] {
		return false
	}
	f.v.Trs.Start(a.File, a.Source, a.Dest)
	f.started = append(f.started, a)
	return true
}

// land commits a started placement's object, as a transfer completing would.
func (f *fakeSubstrate) land(l *Lookahead, file replica.FileH, dest replica.WorkerH) {
	for _, tr := range f.v.Trs.All() {
		if tr.File == file && tr.Dest == dest {
			f.v.Trs.Complete(tr.ID)
		}
	}
	f.v.Reps.Commit(file, dest)
	l.Landed(file, dest)
}

type lookaheadTally struct {
	prefetches, prefetchHits, replicas, replicaHits int64
	wastes, wasteBytes, failures                    int64
}

func tallyLookahead(vm *metrics.VineMetrics) lookaheadTally {
	return lookaheadTally{
		prefetches: vm.PlacementPrefetches.Value(), prefetchHits: vm.PlacementPrefetchHits.Value(),
		replicas: vm.PlacementReplicas.Value(), replicaHits: vm.PlacementReplicaHits.Value(),
		wastes: vm.PlacementWastes.Value(), wasteBytes: vm.PlacementWasteBytes.Value(),
		failures: vm.PlacementFailures.Value(),
	}
}

func threeWorkers() []WorkerInfo {
	return []WorkerInfo{worker("w0", 4, 0), worker("w1", 4, 1), worker("w2", 4, 2)}
}

func TestLookaheadDisabledIsNil(t *testing.T) {
	var l *Lookahead = NewLookahead(PlacementSpec{}, nil, newView())
	if l != nil {
		t.Fatal("disabled spec built an engine")
	}
	// Every method of the nil engine is a no-op.
	l.Consume(fh("f"), 1)
	l.Pass(newFakeSubstrate(), threeWorkers(), []int{1}, Limits{})
	l.Use(fh("f"), wh("w0"))
	l.Landed(fh("f"), wh("w0"))
	l.Failed(fh("f"), wh("w0"))
	l.Gone(fh("f"), wh("w0"))
	l.DropWorker(wh("w0"))
	l.Flush()
	if l.Outstanding() != 0 || l.Charged(wh("w0")) != 0 {
		t.Fatal("nil engine reports state")
	}
}

// TestLookaheadPickCreditsArrivals: with placement on, bytes in flight to a
// worker count toward locality; with it off, only landed bytes do.
func TestLookaheadPickCreditsArrivals(t *testing.T) {
	v := newView()
	v.Trs.Start(fh("big"), managerSource(), wh("w1"))
	needs := []FileNeed{{ID: fh("big"), Size: 100}}
	workers := []WorkerInfo{worker("w0", 4, 0), worker("w1", 4, 1)}
	var off *Lookahead
	if got, _ := off.Pick(needs, resources.R{Cores: 1}, workers, v); got.ID != wh("w0") {
		t.Fatalf("placement off picked %v, want w0 (join order)", got.ID)
	}
	on := NewLookahead(PlacementSpec{Enabled: true}, nil, v)
	if got, _ := on.Pick(needs, resources.R{Cores: 1}, workers, v); got.ID != wh("w1") {
		t.Fatalf("placement on picked %v, want w1 (input arriving)", got.ID)
	}
}

// TestLookaheadResolvesEachRecordOnce drives every resolution path and
// checks the conservation law and the budget ledger after each.
func TestLookaheadResolvesEachRecordOnce(t *testing.T) {
	vm := metrics.ForRegistry(metrics.NewRegistry())
	s := newFakeSubstrate()
	l := NewLookahead(PlacementSpec{Enabled: true}, vm, s.v)
	workers := threeWorkers()
	conserved := func(when string) {
		t.Helper()
		p := tallyLookahead(vm)
		if issued, resolved := p.prefetches+p.replicas,
			p.prefetchHits+p.replicaHits+p.wastes+p.failures+int64(l.Outstanding()); issued != resolved {
			t.Fatalf("%s: issued %d != resolved %d (%+v, outstanding %d)", when, issued, resolved, p, l.Outstanding())
		}
	}

	// Four waiting consumers make "f" hot: one pass replicates it to all
	// three workers (MaxReplicas 3).
	s.files[fh("f")] = FileNeed{ID: fh("f"), Size: 10, FixedSource: urlSource("http://x/f")}
	for i := 0; i < 4; i++ {
		l.Consume(fh("f"), 1)
	}
	l.Pass(s, workers, nil, Limits{})
	if got := tallyLookahead(vm).replicas; got != 3 || l.Outstanding() != 3 {
		t.Fatalf("replicas %d outstanding %d, want 3 and 3", got, l.Outstanding())
	}
	for _, w := range workers {
		if l.Charged(w.ID) != 10 {
			t.Fatalf("%v charged %d, want 10", w.ID, l.Charged(w.ID))
		}
	}
	conserved("issue")

	l.Use(fh("f"), wh("w0")) // hit
	s.land(l, fh("f"), wh("w1"))
	l.Gone(fh("f"), wh("w1")) // landed, then evicted unconsumed: waste
	l.Failed(fh("f"), wh("w2"))
	l.Failed(fh("f"), wh("w2")) // a second report resolves nothing
	p := tallyLookahead(vm)
	if p.replicaHits != 1 || p.wastes != 1 || p.wasteBytes != 10 || p.failures != 1 || l.Outstanding() != 0 {
		t.Fatalf("after hit/waste/failure: %+v outstanding %d", p, l.Outstanding())
	}
	for _, w := range workers {
		if l.Charged(w.ID) != 0 {
			t.Fatalf("%v still charged %d after resolution", w.ID, l.Charged(w.ID))
		}
	}
	conserved("resolve")

	// Dropping below the threshold cools the file: no more replication. A
	// hot file the substrate leaves out (a handle, say) is never planned.
	l.Consume(fh("f"), -1)
	for i := 0; i < 4; i++ {
		l.Consume(fh("handle"), 1)
	}
	l.Pass(s, workers, nil, Limits{})
	if len(s.started) != 3 {
		t.Fatalf("cooled or left-out file replicated: %+v", s.started[3:])
	}
	if s.started[0].Kind.String() != "replicate" {
		t.Fatalf("replication labelled %q", s.started[0].Kind)
	}
	l.Use(fh("nothing"), wh("w0")) // resolving an unknown placement is a no-op
	l.Gone(fh("nothing"), wh("w0"))

	// A queued task needs "g" and temp "t", which is born at w1: the gather
	// aims "g" at w1, the worker whose producer frees a core there.
	s.queued[7] = []FileNeed{{ID: fh("g"), Size: 5, FixedSource: urlSource("http://x/g")}, {ID: fh("t"), Size: 50}}
	s.producers[fh("t")] = wh("w1")
	l.Pass(s, workers, []int{7}, Limits{})
	last := s.started[len(s.started)-1]
	if last.Kind.String() != "prefetch" || last.File != fh("g") || last.Dest != wh("w1") {
		t.Fatalf("gather issued %+v, want a prefetch of g to w1", last)
	}
	s.land(l, fh("g"), wh("w1"))
	l.DropWorker(wh("w1")) // landed and lost with its worker: waste
	if p := tallyLookahead(vm); p.prefetches != 1 || p.wastes != 2 || p.wasteBytes != 15 {
		t.Fatalf("after dropping a landed prefetch: %+v", p)
	}
	conserved("drop")

	// An un-landed record lost with its worker, or gone, is a failure.
	s.queued[8] = []FileNeed{{ID: fh("h"), Size: 5, FixedSource: urlSource("http://x/h")}}
	s.queued[9] = []FileNeed{{ID: fh("k"), Size: 5, FixedSource: urlSource("http://x/k")}}
	l.Pass(s, workers[:1], []int{8, 9}, Limits{})
	if l.Outstanding() != 2 {
		t.Fatalf("outstanding %d, want 2 prefetches to w0", l.Outstanding())
	}
	l.Gone(fh("h"), wh("w0"))
	l.DropWorker(wh("w0"))
	if p := tallyLookahead(vm); p.failures != 3 {
		t.Fatalf("un-landed losses counted %d failures, want 3", p.failures)
	}
	conserved("un-landed")

	// A refused start issues nothing; Flush ends the workflow with every
	// remaining record resolved as waste.
	s.queued[10] = []FileNeed{{ID: fh("m"), Size: 5, FixedSource: urlSource("http://x/m")}}
	s.queued[11] = []FileNeed{{ID: fh("n"), Size: 5, FixedSource: urlSource("http://x/n")}}
	s.refuse[wh("w0")] = true
	l.Pass(s, workers[:1], []int{10}, Limits{})
	if l.Outstanding() != 0 {
		t.Fatal("a refused start left a record")
	}
	delete(s.refuse, wh("w0"))
	l.Pass(s, workers[:1], []int{10, 11}, Limits{WorkerDest: Unlimited})
	s.land(l, fh("m"), wh("w0"))
	l.Use(fh("n"), wh("w0"))
	l.Flush()
	if p := tallyLookahead(vm); p.prefetches != 5 || p.prefetchHits != 1 || l.Outstanding() != 0 || p.wastes != 3 || p.wasteBytes != 20 {
		t.Fatalf("after flush: %+v outstanding %d", p, l.Outstanding())
	}
	conserved("flush")
	if l.Charged(wh("w0")) != 0 {
		t.Fatalf("w0 still charged %d after flush", l.Charged(wh("w0")))
	}
}

// TestLookaheadChargesStayWithinBudget: with DiskFraction of a small disk
// as the budget, no pass charges a worker past it, and a resolution frees
// room for the next placement.
func TestLookaheadChargesStayWithinBudget(t *testing.T) {
	vm := metrics.ForRegistry(metrics.NewRegistry())
	s := newFakeSubstrate()
	l := NewLookahead(PlacementSpec{Enabled: true, FanoutThreshold: 1}, vm, s.v)
	workers := threeWorkers()
	for _, w := range workers {
		s.disk[w.ID] = 50 // budget 25: two 10-byte files fit, a third does not
	}
	s.disk[wh("w2")] = 0 // reports no disk: unlimited
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		id := fh(name)
		s.files[id] = FileNeed{ID: id, Size: 10, FixedSource: managerSource()}
		for i := 0; i < 3; i++ {
			l.Consume(id, 1) // three consumers: a replica wanted on every worker
		}
	}
	limits := Limits{WorkerDest: Unlimited, ManagerSource: Unlimited}
	for pass := 0; pass < 4; pass++ {
		l.Pass(s, workers, nil, limits)
		for _, w := range workers[:2] {
			if got := l.Charged(w.ID); got > 25 {
				t.Fatalf("pass %d: %v charged %d > budget 25", pass, w.ID, got)
			}
		}
	}
	if l.Charged(wh("w0")) != 20 || l.Charged(wh("w2")) != 50 {
		t.Fatalf("charged w0=%d w2=%d, want 20 (budget-bound) and 50 (unlimited)", l.Charged(wh("w0")), l.Charged(wh("w2")))
	}
	l.Use(fh("a"), wh("w0"))
	before := len(s.started)
	l.Pass(s, workers, nil, limits)
	if l.Charged(wh("w0")) != 20 || len(s.started) == before {
		t.Fatalf("resolving a placement did not free budget for the next one (w0 charged %d)", l.Charged(wh("w0")))
	}
}

// TestViewCountsMaterializationsAsPending: a pending replica with no
// transfer behind it (a MiniTask materializing in place) is on its way.
func TestViewCountsMaterializationsAsPending(t *testing.T) {
	v := newView()
	v.Reps.Add(fh("mini"), wh("w0"), replica.Pending)
	if !v.TransferPending(fh("mini"), wh("w0")) || v.TransferPending(fh("mini"), wh("w1")) {
		t.Fatal("materialization not counted as pending at exactly its worker")
	}
	v.Trs.Start(fh("f"), managerSource(), wh("w1"))
	if !v.TransferPending(fh("f"), wh("w1")) || v.TransferPending(fh("f"), wh("w0")) {
		t.Fatal("in-flight transfer not visible through the view")
	}
}
