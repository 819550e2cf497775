package experiments

// Sim/real conformance: one small DAG runs through the discrete-event
// simulator AND the real manager+workers over loopback TCP, and the two
// must make the same demand decisions — which worker runs each task, and
// which files move from which source to which worker. Both substrates
// drive the same scheduling engine (internal/sched) and policy; this suite
// pins that they feed it the same way.
//
// The DAG is shaped so every decision is forced with seconds to spare, and
// insensitive to submission granularity (the real manager sees tasks
// arrive one by one; the simulator sees them all at once): two 1-core
// workers, a filler pinning w0 for 1 s, a quick producer of a temp P on
// w1, then two 3 s consumers of P. The first also reads a manager buffer
// S; it runs on w1, where P already is, so S moves manager->w1. The second
// can only run once the filler frees w0, while the first still holds w1,
// so P moves worker-to-worker, w1->w0. Should the producer be slow enough
// to finish after the filler, both workers are free when P lands and the
// same two placements follow from locality. The simulated runtimes are the
// real commands' sleeps, so both sides describe the same work.
//
// A second DAG puts one worker under disk pressure: three tasks, one input
// each, on a 1-core worker whose disk holds only two of the inputs, so
// staging the third evicts the first. The transfers to the worker are
// sequential, one task at a time, so the real cache's reservation of
// in-flight bytes, which the simulator does not model, cannot matter.
// Both substrates wrap one storage policy (cache.Policy) and must evict
// the same files.

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"taskvine/internal/core"
	"taskvine/internal/files"
	"taskvine/internal/httpsource"
	"taskvine/internal/policy"
	"taskvine/internal/resources"
	"taskvine/internal/sim"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
	"taskvine/internal/worker"
)

// conformanceTask is one task of a conformance DAG, in submission order.
type conformanceTask struct {
	sleep   float64  // runtime in seconds, scaled by the run
	inputs  []string // logical file names
	outputs []string // logical names of temps
}

// conformanceFile is a manager buffer, or a temp some task produces.
type conformanceFile struct {
	name string
	size int64
	temp bool
}

// conformanceCase is a DAG, its files, and the workers it runs on: that
// many 1-core workers, each with a cache of disk bytes.
type conformanceCase struct {
	tasks   []conformanceTask
	files   []conformanceFile
	workers int
	disk    int64
}

// placementCase: the filler, the producer, and two consumers. The
// logical task IDs are positions plus one.
var placementCase = conformanceCase{
	tasks: []conformanceTask{
		{sleep: 1},
		{sleep: 0.1, outputs: []string{"P"}},
		{sleep: 3, inputs: []string{"S", "P"}},
		{sleep: 3, inputs: []string{"P"}},
	},
	files:   []conformanceFile{{name: "S", size: 256e3}, {name: "P", size: 400000, temp: true}},
	workers: 2,
	disk:    resources.GB,
}

// evictionCase: three single-input tasks on one worker whose disk holds
// two of their inputs.
var evictionCase = conformanceCase{
	tasks: []conformanceTask{
		{sleep: 0.1, inputs: []string{"A"}},
		{sleep: 0.1, inputs: []string{"B"}},
		{sleep: 0.1, inputs: []string{"C"}},
	},
	files:   []conformanceFile{{name: "A", size: 100e3}, {name: "B", size: 100e3}, {name: "C", size: 100e3}},
	workers: 1,
	disk:    250e3,
}

const conformanceProducer = 2 // logical ID of P's producer in placementCase

// decisions is one run's demand decisions: the logical task IDs each
// worker started, one "file source->dest" string per transfer start and
// one "file worker" string per eviction, each sorted.
type decisions struct {
	tasks     map[string][]int
	transfers []string
	evictions []string
	completed int
}

// decisionsOf extracts the decisions from a trace. canon maps substrate
// file IDs to the DAG's logical names and task maps substrate task IDs to
// logical ones.
func decisionsOf(events []trace.Event, canon map[string]string, task func(int) int) decisions {
	d := decisions{tasks: map[string][]int{}}
	logical := func(file string) string {
		if c, ok := canon[file]; ok {
			return c
		}
		return file
	}
	for _, ev := range events {
		switch ev.Kind {
		case trace.TaskStart:
			d.tasks[ev.Worker] = append(d.tasks[ev.Worker], task(ev.TaskID))
		case trace.TaskEnd:
			d.completed++
		case trace.TransferStart:
			d.transfers = append(d.transfers, fmt.Sprintf("%s %s->%s", logical(ev.File), ev.Source, ev.Worker))
		case trace.FileEvicted:
			d.evictions = append(d.evictions, fmt.Sprintf("%s %s", logical(ev.File), ev.Worker))
		}
	}
	for _, ids := range d.tasks {
		slices.Sort(ids)
	}
	sort.Strings(d.transfers)
	sort.Strings(d.evictions)
	return d
}

// conformanceSim runs the case's DAG, its runtimes multiplied by scale, in
// the simulator.
func conformanceSim(t *testing.T, cc conformanceCase, scale float64) decisions {
	t.Helper()
	w := &sim.Workload{Files: map[string]*sim.File{}}
	sizes := map[string]int64{}
	for _, f := range cc.files {
		sf := &sim.File{ID: f.name, Size: f.size, Kind: sim.FromManager, SourcePath: "/" + f.name,
			Lifetime: files.LifetimeWorkflow}
		if f.temp {
			sf = &sim.File{ID: f.name, Size: f.size, Kind: sim.Produced}
		}
		w.Files[f.name] = sf
		sizes[f.name] = f.size
	}
	for i := 0; i < cc.workers; i++ {
		w.Workers = append(w.Workers, sim.WorkerSpec{ID: fmt.Sprintf("w%d", i), Cores: 1, Disk: cc.disk})
	}
	for i, ct := range cc.tasks {
		task := &sim.Task{ID: i + 1, Inputs: ct.inputs, Runtime: scale * ct.sleep, Cores: 1}
		for _, out := range ct.outputs {
			task.Outputs = append(task.Outputs, sim.Output{ID: out, Size: sizes[out]})
		}
		w.Tasks = append(w.Tasks, task)
	}
	c := sim.NewCluster(w, sim.DefaultParams(), policy.Limits{})
	c.Run()
	if c.CompletedTasks() != len(w.Tasks) {
		t.Fatalf("sim completed %d/%d tasks", c.CompletedTasks(), len(w.Tasks))
	}
	return decisionsOf(c.Trace().Events(), nil, func(id int) int { return id })
}

// conformanceReal runs the same DAG on the real stack: a manager and the
// case's 1-core workers over loopback, the workers joining in a fixed
// order so join-order tie-breaks match the simulator's.
func conformanceReal(t *testing.T, cc conformanceCase, scale float64) decisions {
	t.Helper()
	m, err := core.NewManager(core.Config{Head: httpsource.Head, TickInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	tmp := t.TempDir()
	for i := 0; i < cc.workers; i++ {
		wk, err := worker.New(worker.Config{
			ManagerAddr:   m.Addr(),
			WorkDir:       filepath.Join(tmp, fmt.Sprintf("w%d", i)),
			Capacity:      resources.R{Cores: 1, Memory: resources.GB, Disk: resources.GB},
			CacheCapacity: cc.disk,
			ID:            fmt.Sprintf("w%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); wk.Run(ctx) }()
		// Join strictly in ID order: the policy breaks ties by join order,
		// so conformance with the sim requires w0 to be the elder.
		deadline := time.Now().Add(10 * time.Second)
		for len(m.Status().Workers) != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("worker w%d never joined", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	ids, canon, sizes := map[string]string{}, map[string]string{}, map[string]int64{}
	for _, f := range cc.files {
		var id string
		if f.temp {
			id = m.Files().DeclareTemp().ID
		} else {
			buf, err := m.Files().DeclareBuffer(make([]byte, int(f.size)), files.LifetimeWorkflow)
			if err != nil {
				t.Fatal(err)
			}
			id = buf.ID
		}
		ids[f.name], canon[id], sizes[f.name] = id, f.name, f.size
	}

	logical := map[int]int{}
	for i, ct := range cc.tasks {
		cmd := fmt.Sprintf("sleep %g", scale*ct.sleep)
		for _, in := range ct.inputs {
			cmd += fmt.Sprintf(" && wc -c < %s > /dev/null", in)
		}
		for _, out := range ct.outputs {
			cmd += fmt.Sprintf(" && head -c %d /dev/zero > %s", sizes[out], out)
		}
		spec := &taskspec.Spec{Kind: taskspec.KindCommand, Command: cmd}
		for _, in := range ct.inputs {
			spec.AddInput(ids[in], in)
		}
		for _, out := range ct.outputs {
			spec.AddOutput(ids[out], out)
		}
		id, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		logical[id] = i + 1
	}

	for range cc.tasks {
		wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
		r, werr := m.Wait(wctx)
		wcancel()
		if werr != nil {
			t.Fatal(werr)
		}
		if !r.OK {
			t.Fatalf("task %d failed: %s", r.TaskID, r.Error)
		}
	}
	return decisionsOf(m.Trace().Events(), canon, func(id int) int { return logical[id] })
}

// TestConformancePlacementDecisionStream: the real run and the simulated
// run of the conformance DAG run the same tasks on the same workers and
// start the same transfers — same files, same sources, same destinations.
func TestConformancePlacementDecisionStream(t *testing.T) {
	simD := conformanceSim(t, placementCase, 1)
	realD := conformanceReal(t, placementCase, 1)
	t.Logf("sim: tasks %v, transfers %v", simD.tasks, simD.transfers)
	// The DAG must exercise both kinds of demand movement, or agreement
	// would be vacuous.
	for _, want := range []string{"P worker:w1->w0", "S manager->w1"} {
		if !slices.Contains(simD.transfers, want) {
			t.Fatalf("sim transfers %v lack %q; the conformance DAG no longer forces it", simD.transfers, want)
		}
	}
	if !slices.Equal(simD.transfers, realD.transfers) {
		t.Fatalf("transfer starts diverge:\n sim: %v\nreal: %v", simD.transfers, realD.transfers)
	}
	for _, w := range []string{"w0", "w1"} {
		if !slices.Equal(simD.tasks[w], realD.tasks[w]) {
			t.Fatalf("tasks on %s diverge: sim ran %v, real ran %v", w, simD.tasks[w], realD.tasks[w])
		}
	}
	if !slices.Contains(simD.tasks["w1"], conformanceProducer) {
		t.Fatalf("the producer ran off w1 (sim placement %v); the DAG no longer forces it", simD.tasks)
	}
}

// TestConformancePlacementOff: with the runtimes removed, which worker a
// consumer lands on hinges on sub-second margins that differ between the
// substrates, so only completion is compared: the DAG completes on both.
func TestConformancePlacementOff(t *testing.T) {
	for name, d := range map[string]decisions{
		"sim":  conformanceSim(t, placementCase, 0),
		"real": conformanceReal(t, placementCase, 0),
	} {
		if d.completed != len(placementCase.tasks) {
			t.Fatalf("%s run ended %d/%d tasks", name, d.completed, len(placementCase.tasks))
		}
	}
}

// TestConformanceDiskPressureEvictions: under disk pressure the real
// worker's cache and the simulated worker's disk evict the same files.
func TestConformanceDiskPressureEvictions(t *testing.T) {
	simD := conformanceSim(t, evictionCase, 1)
	realD := conformanceReal(t, evictionCase, 1)
	t.Logf("sim: evictions %v, transfers %v", simD.evictions, simD.transfers)
	if len(simD.evictions) == 0 || len(realD.evictions) == 0 {
		t.Fatalf("sim evicted %v, real %v: the case no longer forces an eviction", simD.evictions, realD.evictions)
	}
	if !slices.Equal(simD.evictions, realD.evictions) {
		t.Fatalf("evictions diverge:\n sim: %v\nreal: %v", simD.evictions, realD.evictions)
	}
	if !slices.Equal(simD.transfers, realD.transfers) {
		t.Fatalf("transfer starts diverge:\n sim: %v\nreal: %v", simD.transfers, realD.transfers)
	}
}
