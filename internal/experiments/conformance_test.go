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

// conformanceTask is one task of the conformance DAG, in submission order.
type conformanceTask struct {
	sleep   float64  // runtime in seconds, scaled by the run
	inputs  []string // "S", "P"
	outputs []string // "P"
}

// conformanceDAG: the filler, the producer, and two consumers. The
// logical task IDs are positions plus one.
var conformanceDAG = []conformanceTask{
	{sleep: 1},
	{sleep: 0.1, outputs: []string{"P"}},
	{sleep: 3, inputs: []string{"S", "P"}},
	{sleep: 3, inputs: []string{"P"}},
}

const (
	conformanceProducer = 2      // logical ID of P's producer
	conformanceSBytes   = 256e3  // the manager buffer S
	conformancePBytes   = 400000 // the temp P
)

// decisions is one run's demand decisions: the logical task IDs each
// worker started, and one "file source->dest" string per transfer start,
// sorted.
type decisions struct {
	tasks     map[string][]int
	transfers []string
	completed int
}

// decisionsOf extracts the decisions from a trace. canon maps substrate
// file IDs to the DAG's logical names and task maps substrate task IDs to
// logical ones.
func decisionsOf(events []trace.Event, canon map[string]string, task func(int) int) decisions {
	d := decisions{tasks: map[string][]int{}}
	for _, ev := range events {
		switch ev.Kind {
		case trace.TaskStart:
			d.tasks[ev.Worker] = append(d.tasks[ev.Worker], task(ev.TaskID))
		case trace.TaskEnd:
			d.completed++
		case trace.TransferStart:
			file := ev.File
			if c, ok := canon[file]; ok {
				file = c
			}
			d.transfers = append(d.transfers, fmt.Sprintf("%s %s->%s", file, ev.Source, ev.Worker))
		}
	}
	for _, ids := range d.tasks {
		slices.Sort(ids)
	}
	sort.Strings(d.transfers)
	return d
}

// conformanceSim runs the DAG, its runtimes multiplied by scale, in the
// simulator.
func conformanceSim(t *testing.T, scale float64) decisions {
	t.Helper()
	w := &sim.Workload{
		Files: map[string]*sim.File{
			"S": {ID: "S", Size: conformanceSBytes, Kind: sim.FromManager, SourcePath: "/S"},
			"P": {ID: "P", Size: conformancePBytes, Kind: sim.Produced},
		},
		Workers: []sim.WorkerSpec{
			{ID: "w0", Cores: 1, Disk: 10e9},
			{ID: "w1", Cores: 1, Disk: 10e9},
		},
	}
	for i, ct := range conformanceDAG {
		task := &sim.Task{ID: i + 1, Inputs: ct.inputs, Runtime: scale * ct.sleep, Cores: 1}
		for _, out := range ct.outputs {
			task.Outputs = append(task.Outputs, sim.Output{ID: out, Size: conformancePBytes})
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

// conformanceReal runs the same DAG on the real stack: a manager and two
// 1-core workers over loopback, the workers joining in a fixed order so
// join-order tie-breaks match the simulator's.
func conformanceReal(t *testing.T, scale float64) decisions {
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
	for i := 0; i < 2; i++ {
		wk, err := worker.New(worker.Config{
			ManagerAddr: m.Addr(),
			WorkDir:     filepath.Join(tmp, fmt.Sprintf("w%d", i)),
			Capacity:    resources.R{Cores: 1, Memory: resources.GB, Disk: resources.GB},
			ID:          fmt.Sprintf("w%d", i),
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

	buf, err := m.Files().DeclareBuffer(make([]byte, int(conformanceSBytes)), files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	temp := m.Files().DeclareTemp()
	ids := map[string]string{"S": buf.ID, "P": temp.ID}
	canon := map[string]string{buf.ID: "S", temp.ID: "P"}

	logical := map[int]int{}
	for i, ct := range conformanceDAG {
		cmd := fmt.Sprintf("sleep %g", scale*ct.sleep)
		for _, in := range ct.inputs {
			cmd += fmt.Sprintf(" && wc -c < %s > /dev/null", in)
		}
		for _, out := range ct.outputs {
			cmd += fmt.Sprintf(" && head -c %d /dev/zero > %s", conformancePBytes, out)
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

	for range conformanceDAG {
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
	simD := conformanceSim(t, 1)
	realD := conformanceReal(t, 1)
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
	for name, d := range map[string]decisions{"sim": conformanceSim(t, 0), "real": conformanceReal(t, 0)} {
		if d.completed != len(conformanceDAG) {
			t.Fatalf("%s run ended %d/%d tasks", name, d.completed, len(conformanceDAG))
		}
	}
}
