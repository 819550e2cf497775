package sim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"taskvine/internal/chaos"
	"taskvine/internal/policy"
	"taskvine/internal/trace"
)

// fanoutWorkload builds the canonical lookahead shape: one producer makes a
// temp that nConsumers tasks share, while filler tasks keep every core busy
// long enough that the consumers are still queued when the temp lands —
// exactly the window in which lookahead replication beats demand staging.
func fanoutWorkload(nConsumers, nWorkers int, size int64) *Workload {
	w := &Workload{Files: map[string]*File{
		"temp-p": {ID: "temp-p", Size: size, Kind: Produced},
	}}
	id := 1
	w.Tasks = append(w.Tasks, &Task{
		ID: id, Outputs: []Output{{ID: "temp-p", Size: size}}, Runtime: 1, Cores: 1,
	})
	for i := 0; i < nWorkers; i++ {
		id++
		w.Tasks = append(w.Tasks, &Task{ID: id, Runtime: 8, Cores: 1, Category: "filler"})
	}
	for i := 0; i < nConsumers; i++ {
		id++
		w.Tasks = append(w.Tasks, &Task{
			ID: id, Inputs: []string{"temp-p"}, Runtime: 2, Cores: 1, Category: "consume",
		})
	}
	for i := 0; i < nWorkers; i++ {
		w.Workers = append(w.Workers, WorkerSpec{
			ID: fmt.Sprintf("w%d", i), Cores: 1, Disk: 100e9,
		})
	}
	return w
}

// fanoutTasks is the task count of fanoutWorkload(nConsumers, nWorkers, _).
func fanoutTasks(nConsumers, nWorkers int) int { return 1 + nWorkers + nConsumers }

func traceCSV(t *testing.T, c *Cluster) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, c.Trace().Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// placementTally reads the placement counters as one comparable struct.
type placementTally struct {
	prefetches, prefetchHits int64
	replicas, replicaHits    int64
	wastes, failures         int64
	outstanding              int
}

func tallyPlacement(c *Cluster) placementTally {
	return placementTally{
		prefetches:   c.vm.PlacementPrefetches.Value(),
		prefetchHits: c.vm.PlacementPrefetchHits.Value(),
		replicas:     c.vm.PlacementReplicas.Value(),
		replicaHits:  c.vm.PlacementReplicaHits.Value(),
		wastes:       c.vm.PlacementWastes.Value(),
		failures:     c.vm.PlacementFailures.Value(),
		outstanding:  c.place.Outstanding(),
	}
}

// checkConservation pins the placement accounting law: every issued
// transfer resolves exactly once as a hit, waste, or failure, with
// unresolved records as the balancing term.
func checkConservation(t *testing.T, c *Cluster) placementTally {
	t.Helper()
	p := tallyPlacement(c)
	issued := p.prefetches + p.replicas
	resolved := p.prefetchHits + p.replicaHits + p.wastes + p.failures + int64(p.outstanding)
	if issued != resolved {
		t.Fatalf("placement accounting leak: issued %d != hits %d+%d + wastes %d + failures %d + outstanding %d",
			issued, p.prefetchHits, p.replicaHits, p.wastes, p.failures, p.outstanding)
	}
	return p
}

// TestSimPlacementOffIsByteIdentical: a disabled spec (and no spec at all)
// must reproduce the baseline trace byte for byte — placement off is not a
// different scheduler, it is the same scheduler.
func TestSimPlacementOffIsByteIdentical(t *testing.T) {
	run := func(set bool) []byte {
		w := simpleWorkload(24, 4, 100e6, 1)
		c := NewCluster(w, DefaultParams(), policy.Limits{})
		if set {
			c.SetPlacement(policy.PlacementSpec{}) // Enabled false
		}
		c.Run()
		return traceCSV(t, c)
	}
	if !bytes.Equal(run(false), run(true)) {
		t.Fatal("disabled placement changed the trace")
	}
}

// TestSimPlacementReplicatesHotTemp: the producer/fan-out workload must
// trigger speculative replication of the temp once it lands, consumers must
// hit those replicas, the accounting must conserve, and the makespan must
// not regress versus placement off.
func TestSimPlacementReplicatesHotTemp(t *testing.T) {
	run := func(on bool) (float64, *Cluster) {
		w := fanoutWorkload(8, 4, 200e6)
		c := NewCluster(w, DefaultParams(), policy.Limits{})
		if on {
			c.SetPlacement(policy.PlacementSpec{Enabled: true})
		}
		span := c.Run()
		want := fanoutTasks(8, 4)
		if c.CompletedTasks() != want {
			t.Fatalf("completed %d/%d tasks (placement=%v)", c.CompletedTasks(), want, on)
		}
		return span, c
	}
	offSpan, _ := run(false)
	onSpan, c := run(true)
	p := checkConservation(t, c)
	if p.replicas == 0 {
		t.Fatal("hot temp was never speculatively replicated")
	}
	if p.replicaHits == 0 {
		t.Fatal("no consumer ever hit a speculative replica")
	}
	if onSpan > offSpan {
		t.Fatalf("placement regressed makespan: %.3f on vs %.3f off", onSpan, offSpan)
	}
	// The replicate transfers must be visible — and labeled — in the trace.
	labeled := 0
	for _, ev := range c.Trace().Events() {
		if ev.Kind == trace.TransferStart && ev.Detail == "placement:replicate" {
			labeled++
		}
	}
	if int64(labeled) != p.replicas {
		t.Fatalf("%d placement:replicate trace events, counters say %d", labeled, p.replicas)
	}
}

// TestSimPlacementNothingToMoveIsByteIdentical: when every input is already
// resident everywhere, the planner must stand down entirely — enabled
// placement reproduces the baseline trace, pinning "placement never delays
// ready dispatch".
func TestSimPlacementNothingToMoveIsByteIdentical(t *testing.T) {
	build := func() *Workload {
		w := simpleWorkload(16, 4, 50e6, 1)
		for i := range w.Workers {
			w.Workers[i].Prestaged = []string{"url-shared"}
		}
		return w
	}
	run := func(on bool) []byte {
		c := NewCluster(build(), DefaultParams(), policy.Limits{})
		if on {
			c.SetPlacement(policy.PlacementSpec{Enabled: true, FanoutThreshold: 2})
		}
		c.Run()
		return traceCSV(t, c)
	}
	if !bytes.Equal(run(false), run(true)) {
		t.Fatal("placement issued transfers for fully resident inputs")
	}
}

// TestSimPlacementBudgetNeverExceeded: the bytes unresolved placements
// hold against each worker stay within DiskFraction of its disk. The check
// runs every 10 ms of virtual time for the whole run; a charge lasts at
// least one transfer (seconds here), so no over-budget state slips between
// checks.
func TestSimPlacementBudgetNeverExceeded(t *testing.T) {
	const disk = 200e6 // budget: 100e6, fits one replica at a time
	w := fanoutWorkload(8, 3, 60e6)
	for i := range w.Workers {
		w.Workers[i].Disk = disk
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{})
	c.SetPlacement(policy.PlacementSpec{Enabled: true})
	budget := int64(policy.PlacementSpec{}.WithDefaults().DiskFraction * disk)
	want := fanoutTasks(8, 3)
	charged := 0
	var check func()
	check = func() {
		for _, ws := range w.Workers {
			got := c.place.Charged(c.workerNamed(ws.ID).h)
			if got > budget {
				t.Fatalf("t=%.2fs: worker %s charged %d > budget %d", c.eng.Now(), ws.ID, got, budget)
			}
			if got > 0 {
				charged++
			}
		}
		if c.CompletedTasks() < want && c.eng.Now() < 1000 {
			c.eng.After(0.01, check)
		}
	}
	c.eng.At(0, check)
	c.Run()
	if c.CompletedTasks() != want {
		t.Fatalf("completed %d/%d tasks", c.CompletedTasks(), want)
	}
	if charged == 0 {
		t.Fatal("no check saw a budget charge; test is vacuous")
	}
	checkConservation(t, c)
}

// TestSimPlacementDeterministic: same workload, same spec, same trace —
// placement inherits the simulator's bit-for-bit replay.
func TestSimPlacementDeterministic(t *testing.T) {
	run := func() []byte {
		w := fanoutWorkload(8, 4, 200e6)
		c := NewCluster(w, DefaultParams(), policy.Limits{})
		c.SetPlacement(policy.PlacementSpec{Enabled: true})
		c.Run()
		return traceCSV(t, c)
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("placement-enabled runs diverge")
	}
}

// TestChaosSimPlacementConservation: under seeded transfer failures, a
// disk-full worker, and a mid-run crash, the placement accounting law still
// closes and the workflow still completes. CI replays this under its fixed
// chaos seeds.
func TestChaosSimPlacementConservation(t *testing.T) {
	seed := chaosSeed(t)
	run := func() placementTally {
		w := fanoutWorkload(10, 4, 100e6)
		c := NewCluster(w, DefaultParams(), policy.Limits{})
		c.SetPlacement(policy.PlacementSpec{Enabled: true})
		inj := chaos.New(seed).
			Add(chaos.Rule{Point: chaos.Transfer, Action: chaos.Fail, P: 0.3, Count: 10}).
			Add(chaos.Rule{Point: chaos.Transfer, Action: chaos.Slow, P: 0.2, Count: 6, Delay: time.Second}).
			Add(chaos.Rule{Point: chaos.CacheInsert, Action: chaos.Fail, Worker: "w1", Count: 3}).
			Add(chaos.Rule{Point: chaos.TaskRun, Action: chaos.Crash, Worker: "w2", After: 1, Count: 1})
		c.InjectFaults(inj)
		c.Run()
		if want := fanoutTasks(10, 4); c.CompletedTasks() != want {
			t.Fatalf("completed %d/%d tasks under chaos", c.CompletedTasks(), want)
		}
		return checkConservation(t, c)
	}
	a := run()
	b := run()
	if a != b {
		t.Fatalf("placement accounting differs across identical seeded runs:\n%+v\n%+v", a, b)
	}
}
