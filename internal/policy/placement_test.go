package policy

import (
	"fmt"
	"reflect"
	"testing"

	"taskvine/internal/replica"
)

// Property tests for PlanPlacement: seeded pseudo-random cluster snapshots,
// with every safety property of the planner asserted on each. The planner
// is pure, so a violated property reproduces from the printed seed alone.

// placeRand is a tiny deterministic LCG; math/rand would work too, but an
// explicit generator makes the test's determinism self-evident.
type placeRand struct{ x uint64 }

func (r *placeRand) next() uint64 {
	r.x = r.x*6364136223846793005 + 1442695040888963407
	return r.x >> 17
}

func (r *placeRand) intn(n int) int { return int(r.next() % uint64(n)) }

// placeSnapshot is one generated planning input.
type placeSnapshot struct {
	spec    PlacementSpec
	tasks   []PlacementTask
	hot     []HotFile
	workers []WorkerInfo
	limits  Limits
	budgets map[replica.WorkerH]int64
	v       *View
}

func genSnapshot(seed uint64) *placeSnapshot {
	r := &placeRand{x: seed*2654435761 + 1}
	s := &placeSnapshot{
		spec: PlacementSpec{
			Enabled:             true,
			LookaheadPerWorker:  1 + r.intn(3),
			FanoutThreshold:     2 + r.intn(3),
			MaxReplicas:         1 + r.intn(4),
			DiskFraction:        0.5,
			MaxTransfersPerPass: 1 + r.intn(10),
		},
		limits:  Limits{},
		budgets: map[replica.WorkerH]int64{},
		v:       newView(),
	}
	nWorkers := 2 + r.intn(5)
	for i := 0; i < nWorkers; i++ {
		w := worker(fmt.Sprintf("w%d", i), 4, i)
		s.workers = append(s.workers, w)
		if r.intn(3) == 0 {
			s.budgets[w.ID] = -1 // unlimited
		} else {
			s.budgets[w.ID] = int64(r.intn(400)) * 1e6
		}
	}
	nFiles := 3 + r.intn(8)
	files := make([]FileNeed, nFiles)
	for i := range files {
		files[i] = FileNeed{ID: fh(fmt.Sprintf("f%d", i)), Size: int64(1+r.intn(200)) * 1e6}
		switch r.intn(4) {
		case 0:
			files[i].FixedSource = managerSource()
		case 1:
			files[i].FixedSource = urlSource(fmt.Sprintf("http://x/f%d", i))
		default:
			// Worker-held: commit replicas at 1..2 random workers.
			for n := 1 + r.intn(2); n > 0; n-- {
				s.v.Reps.Commit(files[i].ID, s.workers[r.intn(nWorkers)].ID)
			}
		}
		if r.intn(5) == 0 {
			files[i].Size = -1 // unknown size
		}
	}
	// Some pre-existing in-flight transfers so InFlightTo/From are nonzero.
	for n := r.intn(4); n > 0; n-- {
		f := files[r.intn(nFiles)]
		s.v.Trs.Start(f.ID, managerSource(),
			s.workers[r.intn(nWorkers)].ID)
	}
	nTasks := 1 + r.intn(6)
	for i := 0; i < nTasks; i++ {
		var needs []FileNeed
		for _, f := range files {
			if r.intn(3) == 0 {
				needs = append(needs, f)
			}
		}
		s.tasks = append(s.tasks, PlacementTask{ID: i + 1, Needs: needs})
	}
	for _, f := range files {
		if r.intn(2) == 0 {
			s.hot = append(s.hot, HotFile{Need: f, Consumers: r.intn(8)})
		}
	}
	return s
}

func (s *placeSnapshot) budget(workerID replica.WorkerH) int64 {
	b, ok := s.budgets[workerID]
	if !ok {
		return 0
	}
	return b
}

func TestPlanPlacementProperties(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		s := genSnapshot(seed)
		actions := PlanPlacement(s.spec, s.tasks, s.hot, s.workers, s.limits, s.budget, s.v)

		spec := s.spec.WithDefaults()
		limits := s.limits.withDefaults()
		if len(actions) > spec.MaxTransfersPerPass {
			t.Fatalf("seed %d: %d actions > MaxTransfersPerPass %d",
				seed, len(actions), spec.MaxTransfersPerPass)
		}
		seen := map[placeKey]bool{}
		plannedTo := map[replica.WorkerH]int{}
		chargedTo := map[replica.WorkerH]int64{}
		replicasOf := map[replica.FileH]int{}
		for _, a := range actions {
			k := placeKey{a.File, a.Dest}
			if seen[k] {
				t.Fatalf("seed %d: duplicate action for %v -> %v", seed, a.File, a.Dest)
			}
			seen[k] = true
			if s.v.Reps.Has(a.File, a.Dest) {
				t.Fatalf("seed %d: planned %v -> %v but dest already holds it", seed, a.File, a.Dest)
			}
			if s.v.TransferPending(a.File, a.Dest) {
				t.Fatalf("seed %d: planned %v -> %v but a transfer is already pending", seed, a.File, a.Dest)
			}
			if a.Source.Kind == replica.SourceWorker && !s.v.Reps.Has(a.File, a.Source.Worker()) {
				t.Fatalf("seed %d: source worker %v does not hold %v", seed, a.Source.ID, a.File)
			}
			plannedTo[a.Dest]++
			if a.Size > 0 {
				chargedTo[a.Dest] += a.Size
			}
			if a.Kind == PlaceReplicate {
				replicasOf[a.File]++
			}
		}
		for dest, n := range plannedTo {
			if s.v.Trs.InFlightTo(dest)+n > limits.destCap() {
				t.Fatalf("seed %d: dest %v gets %d in-flight + %d planned > cap %d",
					seed, dest, s.v.Trs.InFlightTo(dest), n, limits.destCap())
			}
		}
		for dest, bytes := range chargedTo {
			if b := s.budget(dest); b >= 0 && bytes > b {
				t.Fatalf("seed %d: dest %v charged %d > budget %d", seed, dest, bytes, b)
			}
		}
		for _, hf := range s.hot {
			max := spec.MaxReplicas
			if hf.Consumers < max {
				max = hf.Consumers
			}
			if n := replicasOf[hf.Need.ID]; n > max {
				t.Fatalf("seed %d: %d speculative replicas of %v > min(MaxReplicas, consumers) %d",
					seed, n, hf.Need.ID, max)
			}
		}

		// Same snapshot, same plan: the planner is deterministic.
		again := PlanPlacement(s.spec, s.tasks, s.hot, s.workers, s.limits, s.budget, s.v)
		if !reflect.DeepEqual(actions, again) {
			t.Fatalf("seed %d: planner not deterministic", seed)
		}
	}
}

func TestPlanPlacementDisabledPlansNothing(t *testing.T) {
	s := genSnapshot(7)
	s.spec.Enabled = false
	if got := PlanPlacement(s.spec, s.tasks, s.hot, s.workers, s.limits, s.budget, s.v); got != nil {
		t.Fatalf("disabled spec planned %d actions", len(got))
	}
	if got := PlanPlacement(s.spec.WithDefaults(), nil, nil, nil, s.limits, s.budget, s.v); got != nil {
		t.Fatalf("no workers planned %d actions", len(got))
	}
}

func TestPlanPlacementGathersTowardAffinity(t *testing.T) {
	// w1 holds the big input; the small one should be prefetched to w1, not
	// to the emptier w0.
	v := newView()
	v.Reps.Commit(fh("big"), wh("w1"))
	v.Reps.Commit(fh("small"), wh("w2"))
	tasks := []PlacementTask{{ID: 1, Needs: []FileNeed{
		{ID: fh("big"), Size: 500e6},
		{ID: fh("small"), Size: 1e6},
	}}}
	workers := []WorkerInfo{worker("w0", 4, 0), worker("w1", 4, 1), worker("w2", 4, 2)}
	actions := PlanPlacement(PlacementSpec{Enabled: true}, tasks, nil, workers,
		Limits{}, func(replica.WorkerH) int64 { return -1 }, v)
	if len(actions) != 1 {
		t.Fatalf("actions = %+v, want exactly one prefetch", actions)
	}
	a := actions[0]
	if a.Kind != PlacePrefetch || a.File != fh("small") || a.Dest != wh("w1") {
		t.Fatalf("action = %+v, want prefetch of small toward w1", a)
	}
	if a.Source.Kind != replica.SourceWorker || a.Source.Worker() != wh("w2") {
		t.Fatalf("source = %+v, want worker w2", a.Source)
	}
}

func TestPlanPlacementReplicatesHotFile(t *testing.T) {
	v := newView()
	v.Reps.Commit(fh("hotfile"), wh("w0"))
	hot := []HotFile{{Need: FileNeed{ID: fh("hotfile"), Size: 10e6}, Consumers: 6}}
	workers := []WorkerInfo{worker("w0", 4, 0), worker("w1", 4, 1), worker("w2", 4, 2)}
	actions := PlanPlacement(PlacementSpec{Enabled: true, FanoutThreshold: 4, MaxReplicas: 3},
		nil, hot, workers, Limits{}, func(replica.WorkerH) int64 { return -1 }, v)
	// One replica exists at w0; MaxReplicas 3 wants two more.
	if len(actions) != 2 {
		t.Fatalf("actions = %+v, want two replications", actions)
	}
	dests := map[replica.WorkerH]bool{}
	for _, a := range actions {
		if a.Kind != PlaceReplicate || a.File != fh("hotfile") {
			t.Fatalf("action = %+v, want replicate of hotfile", a)
		}
		dests[a.Dest] = true
	}
	if !dests[wh("w1")] || !dests[wh("w2")] {
		t.Fatalf("replicated to %v, want w1 and w2", dests)
	}
}

func TestPlanPlacementSkipsServedTask(t *testing.T) {
	// Every input of the task is already at w1: gathering anywhere else
	// would duplicate data, so the planner must do nothing.
	v := newView()
	v.Reps.Commit(fh("a"), wh("w1"))
	v.Reps.Commit(fh("b"), wh("w1"))
	tasks := []PlacementTask{{ID: 1, Needs: []FileNeed{{ID: fh("a"), Size: 1e6}, {ID: fh("b"), Size: 1e6}}}}
	workers := []WorkerInfo{worker("w0", 4, 0), worker("w1", 4, 1)}
	actions := PlanPlacement(PlacementSpec{Enabled: true}, tasks, nil, workers,
		Limits{}, func(replica.WorkerH) int64 { return -1 }, v)
	if len(actions) != 0 {
		t.Fatalf("served task still produced actions: %+v", actions)
	}
}

func TestPlanPlacementRespectsLookaheadWindow(t *testing.T) {
	// Three tasks all drawn to the same worker; LookaheadPerWorker 1 must
	// gather for only the first.
	v := newView()
	v.Reps.Commit(fh("anchor"), wh("w0"))
	mk := func(id int, extra string) PlacementTask {
		return PlacementTask{ID: id, Needs: []FileNeed{
			{ID: fh("anchor"), Size: 100e6},
			{ID: fh(extra), Size: 1e6, FixedSource: managerSource()},
		}}
	}
	tasks := []PlacementTask{mk(1, "x1"), mk(2, "x2"), mk(3, "x3")}
	workers := []WorkerInfo{worker("w0", 4, 0), worker("w1", 4, 1)}
	actions := PlanPlacement(PlacementSpec{Enabled: true, LookaheadPerWorker: 1},
		tasks, nil, workers, Limits{}, func(replica.WorkerH) int64 { return -1 }, v)
	if len(actions) != 1 || actions[0].File != fh("x1") || actions[0].Dest != wh("w0") {
		t.Fatalf("actions = %+v, want only x1 -> w0", actions)
	}
}
