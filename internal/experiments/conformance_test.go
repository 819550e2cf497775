package experiments

// Sim/real placement conformance: one small DAG runs through the discrete-
// event simulator AND the real manager+workers over loopback TCP, and the
// stream of placement decisions — which files move where, and why — must
// match decision-for-decision. Both substrates feed the same pure planner
// (policy.PlanPlacement); this suite pins that they feed it the same way.
//
// The DAG is shaped so the placement window is wide and the decision set is
// forced — and insensitive to submission granularity (the real manager sees
// tasks arrive one by one; the simulator sees them all at once): two 1-core
// workers, a long filler pinning each, a quick producer making a temp P
// that four queued consumers share, plus a manager buffer S with exactly
// one consumer. S never crosses the fan-out threshold, so it moves only as
// a gather prefetch; P crosses it, but only becomes placeable once the
// producer finishes — after every submission in both substrates — so it
// moves only as a speculative replica. While the fillers run, lookahead
// must prefetch S toward the consumers' affinity worker and replicate the
// hot P, before any consumer dispatches.

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
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

// conformanceSpec is the placement configuration both substrates run under.
func conformanceSpec() policy.PlacementSpec {
	return policy.PlacementSpec{Enabled: true, FanoutThreshold: 2}
}

// placementDecisions extracts the placement decision stream from a trace:
// one "kind file->dest" string per placement-labeled transfer, sorted.
// canon maps substrate-specific file IDs to the DAG's logical names.
func placementDecisions(events []trace.Event, canon map[string]string) []string {
	var out []string
	for _, ev := range events {
		if ev.Kind != trace.TransferStart || !strings.HasPrefix(ev.Detail, "placement:") {
			continue
		}
		file := ev.File
		if c, ok := canon[file]; ok {
			file = c
		}
		out = append(out, fmt.Sprintf("%s %s->%s", ev.Detail, file, ev.Worker))
	}
	sort.Strings(out)
	return out
}

// conformanceSim runs the DAG in the simulator and returns the placement
// decision stream plus the worker that ran the producer task.
func conformanceSim(t *testing.T, enabled bool) (decisions []string, producerWorker string) {
	t.Helper()
	w := &sim.Workload{
		Files: map[string]*sim.File{
			"S": {ID: "S", Size: 256e3, Kind: sim.FromManager, SourcePath: "/S"},
			"P": {ID: "P", Size: 400e3, Kind: sim.Produced},
		},
		Tasks: []*sim.Task{
			{ID: 1, Runtime: 2.5, Cores: 1, Category: "filler"},
			{ID: 2, Runtime: 0.3, Cores: 1, Outputs: []sim.Output{{ID: "P", Size: 400e3}}},
			{ID: 3, Runtime: 2.0, Cores: 1, Category: "filler"},
		},
		Workers: []sim.WorkerSpec{
			{ID: "w0", Cores: 1, Disk: 10e9},
			{ID: "w1", Cores: 1, Disk: 10e9},
		},
	}
	for i := 0; i < 4; i++ {
		inputs := []string{"P"}
		if i == 0 {
			inputs = []string{"S", "P"} // S's single consumer
		}
		w.Tasks = append(w.Tasks, &sim.Task{
			ID: 4 + i, Inputs: inputs, Runtime: 0.5, Cores: 1, Category: "consume",
		})
	}
	c := sim.NewCluster(w, sim.DefaultParams(), policy.Limits{})
	if enabled {
		c.SetPlacement(conformanceSpec())
	}
	c.Run()
	if c.CompletedTasks() != len(w.Tasks) {
		t.Fatalf("sim completed %d/%d tasks", c.CompletedTasks(), len(w.Tasks))
	}
	for _, ev := range c.Trace().Events() {
		if ev.Kind == trace.TaskStart && ev.TaskID == 2 {
			producerWorker = ev.Worker
		}
	}
	return placementDecisions(c.Trace().Events(), nil), producerWorker
}

// conformanceReal runs the same DAG on the real stack: a manager and two
// 1-core workers over loopback, the workers joining in a fixed order so
// join-order tie-breaks match the simulator's.
func conformanceReal(t *testing.T, enabled bool) (decisions []string, producerWorker string) {
	t.Helper()
	cfg := core.Config{Head: httpsource.Head, TickInterval: 20 * time.Millisecond}
	if enabled {
		cfg.Placement = conformanceSpec()
	}
	m, err := core.NewManager(cfg)
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
		// Join strictly in ID order: the planner breaks ties by join order,
		// so conformance with the sim requires w0 to be the elder.
		deadline := time.Now().Add(10 * time.Second)
		for len(m.Status().Workers) != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("worker w%d never joined", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	buf, err := m.Files().DeclareBuffer(make([]byte, 256*1024), files.LifetimeWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	temp := m.Files().DeclareTemp()
	canon := map[string]string{buf.ID: "S", temp.ID: "P"}

	submit := func(spec *taskspec.Spec) int {
		t.Helper()
		id, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	submit(command("sleep 2.5")) // filler 1: pins w0
	prod := command("sleep 0.3; head -c 400000 /dev/zero > out")
	prod.AddOutput(temp.ID, "out")
	prodID := submit(prod)       // producer: runs on w1 while w0 is pinned
	submit(command("sleep 2.0")) // filler 2: re-pins the producer's worker
	for i := 0; i < 4; i++ {
		var spec *taskspec.Spec
		if i == 0 {
			spec = command("wc -c < s > /dev/null && wc -c < p")
			spec.AddInput(buf.ID, "s")
		} else {
			spec = command("wc -c < p")
		}
		spec.AddInput(temp.ID, "p")
		submit(spec)
	}

	for i := 0; i < 7; i++ {
		wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
		r, werr := m.Wait(wctx)
		wcancel()
		if werr != nil {
			t.Fatal(werr)
		}
		if !r.OK {
			t.Fatalf("task %d failed: %s", r.TaskID, r.Error)
		}
		if r.TaskID == prodID {
			producerWorker = r.Worker
		}
	}
	return placementDecisions(m.Trace().Events(), canon), producerWorker
}

func command(cmd string) *taskspec.Spec {
	return &taskspec.Spec{Kind: taskspec.KindCommand, Command: cmd}
}

// TestConformancePlacementDecisionStream: with placement enabled, the real
// run and the simulated run of the conformance DAG make the same placement
// decisions — same kinds, same files, same destinations.
func TestConformancePlacementDecisionStream(t *testing.T) {
	simDecisions, simProducer := conformanceSim(t, true)
	realDecisions, realProducer := conformanceReal(t, true)
	if len(simDecisions) == 0 {
		t.Fatal("sim made no placement decisions; conformance DAG is vacuous")
	}
	if !equalStrings(simDecisions, realDecisions) {
		t.Fatalf("placement decision streams diverge:\n sim: %v\nreal: %v",
			simDecisions, realDecisions)
	}
	if simProducer != realProducer {
		t.Fatalf("producer placement diverges: sim ran it on %q, real on %q",
			simProducer, realProducer)
	}
}

// TestConformancePlacementOff: with placement disabled, neither substrate
// makes any placement decision, and the DAG still completes on both.
func TestConformancePlacementOff(t *testing.T) {
	simDecisions, _ := conformanceSim(t, false)
	realDecisions, _ := conformanceReal(t, false)
	if len(simDecisions) != 0 {
		t.Fatalf("sim made placement decisions while disabled: %v", simDecisions)
	}
	if len(realDecisions) != 0 {
		t.Fatalf("real run made placement decisions while disabled: %v", realDecisions)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
