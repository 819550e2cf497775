package sim

import (
	"testing"

	"taskvine/internal/files"
	"taskvine/internal/policy"
	"taskvine/internal/trace"
)

// TestDiskPressureEvictsEphemeralFirst: a worker with a small disk runs
// tasks whose inputs exceed capacity; ephemeral inputs are evicted (and
// reported) while the worker-lifetime package survives.
func TestDiskPressureEvictsEphemeralFirst(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{
			"pkg": {ID: "pkg", Size: 40, Kind: FromURL, SourcePath: "/pkg",
				Lifetime: files.LifetimeWorker},
		},
		Workers: []WorkerSpec{{ID: "w0", Cores: 1, Disk: 100}},
	}
	// Sequential tasks, each with a unique 50-byte workflow-lifetime input
	// plus the shared package: the second input forces the first out.
	for i := 0; i < 3; i++ {
		id := string(rune('a' + i))
		f := sim_file(id, 50)
		w.Files[id] = &f
		w.Tasks = append(w.Tasks, &Task{
			ID: i + 1, Inputs: []string{"pkg", id}, Runtime: 5, Cores: 1,
		})
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{})
	c.Run()
	if c.CompletedTasks() != 3 {
		t.Fatalf("completed %d of 3", c.CompletedTasks())
	}
	evictions := 0
	for _, e := range c.Trace().Events() {
		if e.Kind == trace.FileEvicted {
			evictions++
			if e.File == "pkg" {
				t.Fatal("worker-lifetime package evicted before ephemeral inputs")
			}
		}
	}
	if evictions == 0 {
		t.Fatal("no evictions under disk pressure")
	}
	// The package must still be resident at the end.
	if !c.hasReplica("pkg", "w0") {
		t.Fatal("package lost")
	}
}

func sim_file(id string, size int64) File {
	return File{ID: id, Size: size, Kind: FromURL, SourcePath: "/" + id,
		Lifetime: files.LifetimeWorkflow}
}

// TestPinnedInputsSurviveDiskPressure: inputs of a running task cannot be
// evicted to admit another object.
func TestPinnedInputsSurviveDiskPressure(t *testing.T) {
	w := &Workload{
		Files: map[string]*File{
			"big-in":  {ID: "big-in", Size: 70, Kind: FromURL, SourcePath: "/a"},
			"second":  {ID: "second", Size: 60, Kind: FromURL, SourcePath: "/b"},
			"temp-o1": {ID: "temp-o1", Size: 1, Kind: Produced},
			"temp-o2": {ID: "temp-o2", Size: 1, Kind: Produced},
		},
		Tasks: []*Task{
			{ID: 1, Inputs: []string{"big-in"}, Outputs: []Output{{ID: "temp-o1", Size: 1}},
				Runtime: 50, Cores: 1},
			{ID: 2, Inputs: []string{"second"}, Outputs: []Output{{ID: "temp-o2", Size: 1}},
				Runtime: 1, Cores: 1},
		},
		// 2 cores so both tasks can be scheduled; 100 bytes disk so both
		// inputs cannot coexist.
		Workers: []WorkerSpec{{ID: "w0", Cores: 2, Disk: 100}},
	}
	c := NewCluster(w, DefaultParams(), policy.Limits{})
	c.Run()
	// Task 1 runs for 50s with big-in pinned; task 2's input cannot be
	// admitted until task 1 finishes, so the makespan exceeds 50s and both
	// tasks still complete.
	if c.CompletedTasks() != 2 {
		t.Fatalf("completed %d of 2", c.CompletedTasks())
	}
	for _, e := range c.Trace().Events() {
		if e.Kind == trace.FileEvicted && e.File == "big-in" && e.Time < 50 {
			t.Fatal("pinned input evicted while its task ran")
		}
	}
}

// TestCacheCapacitySweep: shrinking worker disks forces evictions — but
// the lifetime-first policy absorbs the pressure by dropping ephemeral
// inputs, so the persistent package is never re-fetched. The URL fetch
// count stays identical while evictions appear: exactly the behaviour that
// makes worker-lifetime caches safe on small disks.
func TestCacheCapacitySweep(t *testing.T) {
	build := func(disk int64) *Workload {
		w := &Workload{
			Files: map[string]*File{
				"pkg": {ID: "pkg", Size: 60, Kind: FromURL, SourcePath: "/pkg",
					Lifetime: files.LifetimeWorker},
			},
			Workers: []WorkerSpec{{ID: "w0", Cores: 1, Disk: disk}},
		}
		for i := 0; i < 6; i++ {
			id := string(rune('a' + i))
			f := sim_file(id, 50)
			f.Lifetime = files.LifetimeTask
			w.Files[id] = &f
			w.Tasks = append(w.Tasks, &Task{
				ID: i + 1, Inputs: []string{"pkg", id}, Runtime: 2, Cores: 1,
			})
		}
		return w
	}
	run := func(disk int64) (urlFetches int64, evictions int) {
		c := NewCluster(build(disk), DefaultParams(),
			policy.Limits{URLSource: policy.Unlimited})
		c.Run()
		if c.CompletedTasks() != 6 {
			t.Fatalf("disk=%d: completed %d of 6", disk, c.CompletedTasks())
		}
		s := trace.Summarize(c.Trace().Events())
		for _, e := range c.Trace().Events() {
			if e.Kind == trace.FileEvicted {
				evictions++
			}
		}
		return s.TransfersBySource["url"], evictions
	}
	ampleFetches, ampleEvictions := run(1000) // everything fits forever
	tightFetches, tightEvictions := run(115)  // pkg + one input barely fit
	if ampleEvictions != 0 {
		t.Fatalf("ample disk evicted %d objects", ampleEvictions)
	}
	if tightEvictions == 0 {
		t.Fatal("tight disk evicted nothing")
	}
	if tightFetches != ampleFetches {
		t.Fatalf("persistent package re-fetched under pressure: %d vs %d fetches",
			tightFetches, ampleFetches)
	}
}
