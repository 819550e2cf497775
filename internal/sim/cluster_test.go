package sim

import (
	"fmt"
	"testing"

	"taskvine/internal/chaos"
	"taskvine/internal/files"
	"taskvine/internal/policy"
	"taskvine/internal/trace"
)

// simpleWorkload: n tasks sharing one URL input on k workers.
func simpleWorkload(nTasks, nWorkers int, fileSize int64, runtime float64) *Workload {
	w := &Workload{Files: map[string]*File{
		"url-shared": {ID: "url-shared", Size: fileSize, Lifetime: files.LifetimeWorkflow,
			Kind: FromURL, SourcePath: "/shared"},
	}}
	for i := 0; i < nTasks; i++ {
		w.Tasks = append(w.Tasks, &Task{
			ID: i + 1, Inputs: []string{"url-shared"}, Runtime: runtime, Cores: 1,
		})
	}
	for i := 0; i < nWorkers; i++ {
		w.Workers = append(w.Workers, WorkerSpec{
			ID: fmt.Sprintf("w%d", i), Cores: 4, Disk: 100e9,
		})
	}
	return w
}

func TestClusterRunsAllTasks(t *testing.T) {
	w := simpleWorkload(20, 4, 1e6, 5)
	c := NewCluster(w, DefaultParams(), policy.Limits{})
	makespan := c.Run()
	if c.CompletedTasks() != 20 {
		t.Fatalf("completed %d of 20", c.CompletedTasks())
	}
	// 20 tasks, 16 cores, 5s each: at least two waves, so >= 10s.
	if makespan < 10 {
		t.Fatalf("makespan %v implausibly low", makespan)
	}
	if makespan > 60 {
		t.Fatalf("makespan %v implausibly high", makespan)
	}
}

func TestSharedInputFetchedOncePerWorker(t *testing.T) {
	w := simpleWorkload(40, 4, 100e6, 1)
	c := NewCluster(w, DefaultParams(), policy.Limits{})
	c.Run()
	s := trace.Summarize(c.Trace().Events())
	var total int64
	for _, n := range s.TransfersBySource {
		total += n
	}
	// The shared input lands once per worker (4), regardless of 40 tasks.
	if total != 4 {
		t.Fatalf("transfers = %v, want 4 total", s.TransfersBySource)
	}
}

func TestWorkerToWorkerPreferred(t *testing.T) {
	// With a tight URL limit of 1, later workers should fetch from peers.
	w := simpleWorkload(8, 8, 200e6, 1)
	c := NewCluster(w, DefaultParams(), policy.Limits{URLSource: 1, WorkerSource: 3})
	c.Run()
	s := trace.Summarize(c.Trace().Events())
	urlFetches := s.TransfersBySource["url"]
	if urlFetches == 0 {
		t.Fatal("no URL fetch at all")
	}
	var peer int64
	for src, n := range s.TransfersBySource {
		if len(src) > 7 && src[:7] == "worker:" {
			peer += n
		}
	}
	if peer == 0 {
		t.Fatalf("no worker-to-worker transfers: %v", s.TransfersBySource)
	}
	if urlFetches+peer != 8 {
		t.Fatalf("each worker gets the file exactly once: %v", s.TransfersBySource)
	}
	if urlFetches > 3 {
		t.Fatalf("URL overfetched (%d); peers should supply the rest", urlFetches)
	}
}

func TestTempDependencyChain(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{
			"temp-a": {ID: "temp-a", Size: 1e6, Kind: Produced},
			"temp-b": {ID: "temp-b", Size: 1e6, Kind: Produced},
		},
		Tasks: []*Task{
			{ID: 1, Outputs: []Output{{ID: "temp-a", Size: 1e6}}, Runtime: 3, Cores: 1},
			{ID: 2, Inputs: []string{"temp-a"}, Outputs: []Output{{ID: "temp-b", Size: 1e6}}, Runtime: 2, Cores: 1},
		},
		Workers: []WorkerSpec{{ID: "w0", Cores: 4, Disk: 1e9}, {ID: "w1", Cores: 4, Disk: 1e9}},
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{})
	makespan := c.Run()
	if c.CompletedTasks() != 2 {
		t.Fatalf("completed %d", c.CompletedTasks())
	}
	if makespan < 5 {
		t.Fatalf("chain ran in %v; dependency not respected", makespan)
	}
	// Locality: task 2 should land where temp-a lives, so no transfer of
	// temp-a is needed at all.
	s := trace.Summarize(c.Trace().Events())
	if len(s.TransfersBySource) != 0 {
		t.Fatalf("temp moved unnecessarily: %v", s.TransfersBySource)
	}
}

func TestMiniTaskMaterializedOncePerWorkerAndShared(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{
			"url-env.tar": {ID: "url-env.tar", Size: 600e6, Kind: FromURL, SourcePath: "/env.tar"},
			"mini-env": {ID: "mini-env", Size: 600e6, Kind: MiniProduct,
				MiniInputs: []string{"url-env.tar"}, UnpackRate: 200e6},
		},
		Workers: []WorkerSpec{
			{ID: "w0", Cores: 4, Disk: 100e9},
			{ID: "w1", Cores: 4, Disk: 100e9},
		},
	}
	for i := 0; i < 16; i++ {
		w.Tasks = append(w.Tasks, &Task{ID: i + 1, Inputs: []string{"mini-env"}, Runtime: 10, Cores: 1})
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{})
	c.Run()
	if c.CompletedTasks() != 16 {
		t.Fatalf("completed %d of 16", c.CompletedTasks())
	}
	// Each worker unpacks at most once; the tarball also arrives once per
	// worker at most (or rides w2w from the peer).
	stages := 0
	for _, e := range c.Trace().Events() {
		if e.Kind == trace.StageStart {
			stages++
		}
	}
	if stages == 0 || stages > 2 {
		t.Fatalf("environment unpacked %d times; want once per worker (<=2)", stages)
	}
}

func TestReturnOutputsFlowsThroughManager(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{
			"temp-o1": {ID: "temp-o1", Size: 500e6, Kind: Produced},
			"temp-o2": {ID: "temp-o2", Size: 500e6, Kind: Produced},
		},
		Tasks: []*Task{
			{ID: 1, Outputs: []Output{{ID: "temp-o1", Size: 500e6}}, Runtime: 1, Cores: 1, ReturnOutputs: true},
			{ID: 2, Outputs: []Output{{ID: "temp-o2", Size: 500e6}}, Runtime: 1, Cores: 1, ReturnOutputs: true},
		},
		Workers: []WorkerSpec{{ID: "w0", Cores: 4, Disk: 1e9}, {ID: "w1", Cores: 4, Disk: 1e9}},
	}
	withReturn := NewCluster(w, DefaultParams(), policy.Limits{})
	m1 := withReturn.Run()

	for _, task := range w.Tasks {
		task.ReturnOutputs = false
	}
	inCluster := NewCluster(w, DefaultParams(), policy.Limits{})
	m2 := inCluster.Run()
	if m1 <= m2 {
		t.Fatalf("returning outputs (%v) should be slower than in-cluster (%v)", m1, m2)
	}
}

func TestGradualWorkerArrival(t *testing.T) {
	w := simpleWorkload(12, 3, 1e6, 5)
	w.Workers[1].JoinTime = 10
	w.Workers[2].JoinTime = 20
	c := NewCluster(w, DefaultParams(), policy.Limits{})
	c.Run()
	events := c.Trace().Events()
	joins := map[string]float64{}
	firstTask := map[string]float64{}
	for _, e := range events {
		switch e.Kind {
		case trace.WorkerJoined:
			joins[e.Worker] = e.Time
		case trace.TaskStart:
			if _, ok := firstTask[e.Worker]; !ok {
				firstTask[e.Worker] = e.Time
			}
		}
	}
	if joins["w2"] != 20 {
		t.Fatalf("w2 joined at %v", joins["w2"])
	}
	for wid, t0 := range firstTask {
		if t0 < joins[wid] {
			t.Fatalf("worker %s ran a task at %v before joining at %v", wid, t0, joins[wid])
		}
	}
}

func TestPrestagedHotCache(t *testing.T) {
	cold := simpleWorkload(8, 2, 500e6, 2)
	c1 := NewCluster(cold, DefaultParams(), policy.Limits{})
	coldSpan := c1.Run()

	hot := simpleWorkload(8, 2, 500e6, 2)
	for i := range hot.Workers {
		hot.Workers[i].Prestaged = []string{"url-shared"}
	}
	c2 := NewCluster(hot, DefaultParams(), policy.Limits{})
	hotSpan := c2.Run()

	if hotSpan >= coldSpan {
		t.Fatalf("hot cache (%v) not faster than cold (%v)", hotSpan, coldSpan)
	}
	s := trace.Summarize(c2.Trace().Events())
	if len(s.TransfersBySource) != 0 {
		t.Fatalf("hot cache still transferred: %v", s.TransfersBySource)
	}
}

func TestServerlessLibraryDeployment(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{
			"url-libenv": {ID: "url-libenv", Size: 89e6, Kind: FromURL, SourcePath: "/libenv"},
		},
		Libraries: []*Library{{Name: "bgd", EnvFile: "url-libenv", BootTime: 5, Cores: 1}},
		Workers: []WorkerSpec{
			{ID: "w0", Cores: 4, Disk: 1e9},
			{ID: "w1", Cores: 4, Disk: 1e9},
		},
	}
	for i := 0; i < 12; i++ {
		w.Tasks = append(w.Tasks, &Task{ID: i + 1, Runtime: 10, Cores: 1, Library: "bgd"})
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{})
	makespan := c.Run()
	if c.CompletedTasks() != 12 {
		t.Fatalf("completed %d of 12", c.CompletedTasks())
	}
	// No FunctionCall may start before its worker's library is ready.
	libReady := map[string]float64{}
	for _, e := range c.Trace().Events() {
		switch e.Kind {
		case trace.LibraryReady:
			libReady[e.Worker] = e.Time
		case trace.TaskStart:
			ready, ok := libReady[e.Worker]
			if !ok || e.Time < ready {
				t.Fatalf("task started at %v before library ready (%v) on %s", e.Time, ready, e.Worker)
			}
		}
	}
	// Boot (>=5s) + 4 waves of 10s on 2 workers x 3 free cores.
	if makespan < 15 {
		t.Fatalf("makespan %v too low", makespan)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int) {
		w := simpleWorkload(30, 5, 50e6, 3)
		c := NewCluster(w, DefaultParams(), policy.Limits{})
		ms := c.Run()
		return ms, c.Trace().Len()
	}
	m1, n1 := run()
	m2, n2 := run()
	if m1 != m2 || n1 != n2 {
		t.Fatalf("simulation not deterministic: (%v,%d) vs (%v,%d)", m1, n1, m2, n2)
	}
}

func TestWorkerPreemption(t *testing.T) {
	// Three workers; one is preempted mid-run. All tasks must still
	// complete, re-executed elsewhere, and nothing may double-complete.
	w := simpleWorkload(30, 3, 10e6, 20)
	w.Workers[1].LeaveTime = 15 // dies while tasks are running
	c := NewCluster(w, DefaultParams(), policy.Limits{})
	makespan := c.Run()
	if c.CompletedTasks() != 30 {
		t.Fatalf("completed %d of 30 after preemption", c.CompletedTasks())
	}
	// Trace sanity: exactly one TaskEnd per task ID.
	ends := map[int]int{}
	var left bool
	for _, e := range c.Trace().Events() {
		switch e.Kind {
		case trace.TaskEnd:
			ends[e.TaskID]++
		case trace.WorkerLeft:
			left = true
		}
	}
	if !left {
		t.Fatal("no WorkerLeft event recorded")
	}
	for id, n := range ends {
		if n != 1 {
			t.Fatalf("task %d completed %d times", id, n)
		}
	}
	if makespan <= 20 {
		t.Fatalf("makespan %v too low for re-executed work", makespan)
	}
}

func TestPreemptionLosesReplicasAndRecovers(t *testing.T) {
	// The preempted worker held the only replica of a temp; its consumer
	// forces re-execution of the producer on a surviving worker.
	w := &Workload{
		Files: map[string]*File{
			"temp-x": {ID: "temp-x", Size: 1e6, Kind: Produced},
		},
		Tasks: []*Task{
			{ID: 1, Outputs: []Output{{ID: "temp-x", Size: 1e6}}, Runtime: 2, Cores: 1},
			// The consumer starts around t=2 and is still running when its
			// worker (and the only temp replica) is preempted at t=5.
			{ID: 2, Inputs: []string{"temp-x"}, Runtime: 10, Cores: 1},
		},
		Workers: []WorkerSpec{
			{ID: "w0", Cores: 1, Disk: 1e9, LeaveTime: 5},
			{ID: "w1", Cores: 1, Disk: 1e9, JoinTime: 10},
		},
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{})
	c.Run()
	// The producer completes (~2s) on w0; the consumer starts there and is
	// preempted at 5s along with the only temp replica. The simulator now
	// mirrors the real manager's recovery re-execution (§2.2): the lost
	// temp's producer is requeued, reruns on w1 after it joins at 10s, and
	// the consumer then completes.
	if c.CompletedTasks() != 2 {
		t.Fatalf("completed %d, want 2 (recovery re-executes the producer)", c.CompletedTasks())
	}
	recoveries := 0
	for _, ev := range c.Trace().Events() {
		if ev.Kind == trace.RecoveryStart {
			recoveries++
			if ev.File != "temp-x" || ev.TaskID != 1 {
				t.Fatalf("recovery event for file %q task %d, want temp-x task 1", ev.File, ev.TaskID)
			}
		}
	}
	if recoveries != 1 {
		t.Fatalf("RecoveryStart events = %d, want 1", recoveries)
	}
}

// The cluster's free-core count must equal the sum over the joined
// workers' pools at every trace event, through library deploys, crashes,
// preemption and requeues.
func TestFreeCoresMatchesPools(t *testing.T) {
	lib := simpleWorkload(12, 3, 10e6, 4)
	lib.Files["url-libenv"] = &File{ID: "url-libenv", Size: 89e6, Kind: FromURL, SourcePath: "/libenv"}
	lib.Libraries = []*Library{{Name: "bgd", EnvFile: "url-libenv", BootTime: 5, Cores: 1}}
	for _, task := range lib.Tasks[:6] {
		task.Library = "bgd"
	}
	lib.Workers[1].LeaveTime = 15
	for name, tc := range map[string]struct {
		w   *Workload
		inj *chaos.Injector
	}{
		"chaos":   {simpleWorkload(24, 4, 500e6, 1.0), chaosRules(1)},
		"library": {lib, nil},
	} {
		t.Run(name, func(t *testing.T) {
			c := NewCluster(tc.w, DefaultParams(), policy.DefaultLimits())
			if tc.inj != nil {
				c.InjectFaults(tc.inj)
			}
			checked := 0
			c.Trace().Observe(func(e trace.Event) {
				sum := 0
				for _, w := range c.workers {
					if w.joined {
						sum += w.pool.Free().Cores
					}
				}
				if c.sched.FreeCores() != sum {
					t.Fatalf("%s at %.3f: freeCores %d, pools hold %d free", e.Kind, e.Time, c.sched.FreeCores(), sum)
				}
				checked++
			})
			c.Run()
			requireDone(t, c, tc.w)
			if checked == 0 {
				t.Fatal("no trace event checked")
			}
		})
	}
}
