package sim

import (
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"taskvine/internal/chaos"
	"taskvine/internal/policy"
	"taskvine/internal/trace"
)

// chaosSeed returns the seed for the chaos suite. CI runs the suite under
// several fixed seeds via VINE_CHAOS_SEED; locally it defaults to 1.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("VINE_CHAOS_SEED")
	if s == "" {
		return 1
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad VINE_CHAOS_SEED %q: %v", s, err)
	}
	return n
}

// chaosRules builds the mixed-fault scenario used by the determinism test:
// probabilistic transfer failures, slow links, a disk-full worker, and a
// mid-run worker crash.
func chaosRules(seed int64) *chaos.Injector {
	return chaos.New(seed).
		Add(chaos.Rule{Point: chaos.Transfer, Action: chaos.Fail, P: 0.3, Count: 12}).
		Add(chaos.Rule{Point: chaos.Transfer, Action: chaos.Slow, P: 0.2, Count: 8, Delay: 2 * time.Second}).
		Add(chaos.Rule{Point: chaos.CacheInsert, Action: chaos.Fail, Worker: "w2", Count: 3}).
		Add(chaos.Rule{Point: chaos.TaskRun, Action: chaos.Crash, Worker: "w3", After: 2, Count: 1})
}

// TestChaosSimSeededScenarioDeterministic drives a workload through a mixed
// fault scenario and checks the three load-bearing properties of the chaos
// harness: the workflow still completes every task, faults actually fired
// (the run was not a clean run in disguise), and the whole run — every
// trace event — replays bit-for-bit for the same seed.
func TestChaosSimSeededScenarioDeterministic(t *testing.T) {
	seed := chaosSeed(t)

	run := func(inj *chaos.Injector) (float64, *Cluster) {
		w := simpleWorkload(24, 4, 500e6, 1.0)
		c := NewCluster(w, DefaultParams(), policy.DefaultLimits())
		c.InjectFaults(inj)
		return c.Run(), c
	}

	cleanSpan, clean := run(nil)
	if got := clean.CompletedTasks(); got != 24 {
		t.Fatalf("clean run completed %d/24 tasks", got)
	}

	injA := chaosRules(seed)
	spanA, a := run(injA)
	if got := a.CompletedTasks(); got != 24 {
		t.Fatalf("chaos run completed %d/24 tasks; faults must not lose work", got)
	}
	if injA.Fired("") == 0 {
		t.Fatalf("no faults fired; scenario is vacuous")
	}
	failures := 0
	for _, ev := range a.Trace().Events() {
		if ev.Kind == trace.TransferFailed {
			failures++
		}
	}
	if injA.Fired(chaos.Transfer) > 0 && failures == 0 {
		t.Fatalf("transfer faults fired but no TransferFailed events recorded")
	}
	if spanA < cleanSpan {
		t.Fatalf("chaos makespan %.3f < clean makespan %.3f; faults cannot speed a run up", spanA, cleanSpan)
	}

	// Same seed, same rules: identical event stream and injection history.
	injB := chaosRules(seed)
	spanB, b := run(injB)
	if spanA != spanB {
		t.Fatalf("makespan differs across identical seeded runs: %.9f vs %.9f", spanA, spanB)
	}
	if !reflect.DeepEqual(a.Trace().Events(), b.Trace().Events()) {
		t.Fatalf("trace differs across identical seeded runs (seed %d)", seed)
	}
	if !reflect.DeepEqual(injA.Injections(), injB.Injections()) {
		t.Fatalf("injection history differs across identical seeded runs (seed %d)", seed)
	}
}

// TestChaosSimCrashRecoversLostTemp crashes the worker holding the only
// replica of a temp just as the consumer starts, and checks that the
// simulator performs recovery re-execution: the completed producer is
// requeued on the surviving worker and the workflow finishes.
func TestChaosSimCrashRecoversLostTemp(t *testing.T) {
	seed := chaosSeed(t)
	w := &Workload{
		Files: map[string]*File{
			"temp-x": {ID: "temp-x", Size: 1e6, Kind: Produced},
		},
		Tasks: []*Task{
			{ID: 1, Outputs: []Output{{ID: "temp-x", Size: 1e6}}, Runtime: 2, Cores: 1},
			{ID: 2, Inputs: []string{"temp-x"}, Runtime: 2, Cores: 1},
		},
		Workers: []WorkerSpec{
			// Only w0 exists while the producer runs and the consumer is
			// dispatched; w1 joins late enough to host only the recovery.
			{ID: "w0", Cores: 1, Disk: 1e9},
			{ID: "w1", Cores: 1, Disk: 1e9, JoinTime: 3},
		},
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{})
	// The producer's start is w0's first task-run opportunity; the crash
	// skips it and fires at the second — the consumer's start — when the
	// temp's only replica lives on w0.
	inj := chaos.New(seed).Add(chaos.Rule{
		Point: chaos.TaskRun, Action: chaos.Crash, Worker: "w0", After: 1, Count: 1,
	})
	c.InjectFaults(inj)
	c.Run()

	if inj.Fired(chaos.TaskRun) != 1 {
		t.Fatalf("crash fault fired %d times, want 1", inj.Fired(chaos.TaskRun))
	}
	if got := c.CompletedTasks(); got != 2 {
		t.Fatalf("completed %d/2 tasks after crash; recovery failed", got)
	}
	recoveries := 0
	for _, ev := range c.Trace().Events() {
		if ev.Kind == trace.RecoveryStart {
			recoveries++
			if ev.File != "temp-x" || ev.TaskID != 1 {
				t.Fatalf("recovery of file %q task %d, want temp-x task 1", ev.File, ev.TaskID)
			}
		}
	}
	if recoveries != 1 {
		t.Fatalf("RecoveryStart events = %d, want 1", recoveries)
	}
}

// TestChaosDiskFullOnCacheInsert is the simulator's twin of core's test of
// the same name: the only worker refuses its first object as if its disk
// were full. As in core, the refusal fails the transfer, spending a retry
// attempt and a backoff window, and the task still completes. The refused
// attempt moves no bytes: it fails one control latency after it starts.
func TestChaosDiskFullOnCacheInsert(t *testing.T) {
	const size = 1e6
	w := &Workload{
		Files:   map[string]*File{"in": {ID: "in", Size: size, Kind: FromManager}},
		Tasks:   []*Task{{ID: 1, Inputs: []string{"in"}, Runtime: 1, Cores: 1}},
		Workers: []WorkerSpec{{ID: "tight-disk", Cores: 4, Disk: 1e9}},
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{})
	inj := chaos.New(chaosSeed(t)).Add(chaos.Rule{Point: chaos.CacheInsert, Action: chaos.Fail, Count: 1})
	c.InjectFaults(inj)
	c.Run()
	if c.CompletedTasks() != 1 {
		t.Fatalf("task did not complete after disk-full injection")
	}
	if inj.Fired(chaos.CacheInsert) != 1 {
		t.Fatalf("cache-insert fault fired %d times, want 1", inj.Fired(chaos.CacheInsert))
	}
	var starts, failed, retries []trace.Event
	for _, ev := range c.Trace().Events() {
		switch {
		case ev.File != "in":
		case ev.Kind == trace.TransferStart:
			starts = append(starts, ev)
		case ev.Kind == trace.TransferFailed:
			failed = append(failed, ev)
		case ev.Kind == trace.TransferRetry:
			retries = append(retries, ev)
		}
	}
	if len(starts) != 2 || len(failed) != 1 || len(retries) != 1 {
		t.Fatalf("in: %d starts, %d failures, %d retries; want 2, 1, 1", len(starts), len(failed), len(retries))
	}
	if got, want := failed[0].Time-starts[0].Time, DefaultParams().ControlLatency; !almostEqual(got, want) {
		t.Fatalf("refused transfer failed %.6f s after it started, want %.6f: no bytes move", got, want)
	}
	if got := trace.Summarize(c.Trace().Events()).BytesBySource["manager"]; got != size {
		t.Fatalf("manager sent %d bytes, want %d: the refused attempt is charged nothing", got, int64(size))
	}
}
