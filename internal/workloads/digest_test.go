package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"taskvine/internal/policy"
	"taskvine/internal/sim"
	"taskvine/internal/trace"
)

// digestTopEFT is the TopEFT shape at the size the repository benchmark
// simulates: 2,000 process tasks, a 9-way accumulation tree, and 25
// four-core workers arriving over the default ramp.
func digestTopEFT() *sim.Workload {
	cfg := DefaultTopEFT(false)
	cfg.ProcessTasks = 2000
	cfg.FanIn = 9
	cfg.Workers = 25
	cfg.CoresPerWorker = 4
	return TopEFT(cfg)
}

// digestBlastEvicting is a BLAST shape whose worker disks hold the unpacked
// software and database plus only a few 40 MB query batches, so admitting a
// new batch evicts older ones (and now and then a tarball) while staging
// tasks still wait on them.
func digestBlastEvicting() *sim.Workload {
	w := Blast(BlastConfig{Tasks: 400, Workers: 10, CoresPerWorker: 4,
		SoftwareTarMB: 100, DatabaseTarMB: 500, QueryRuntime: 5, UnpackRate: 100e6,
		QueryMB: 40, QueryBatch: 4})
	for i := range w.Workers {
		w.Workers[i].Disk = 1.95e9
	}
	return w
}

// digestCase is one simulated run whose full trace CSV is pinned by its
// SHA-256. A zero seed runs fault-free; any other seed runs under
// goldenChaos(seed).
type digestCase struct {
	name     string
	build    func() *sim.Workload
	seed     int64
	evicts   bool
	wantHash string
}

func (tc digestCase) check(t *testing.T) {
	t.Helper()
	w := tc.build()
	c := sim.NewCluster(w, sim.DefaultParams(), policy.DefaultLimits())
	if tc.seed != 0 {
		c.InjectFaults(goldenChaos(tc.seed))
	}
	c.Run()
	if got, want := c.CompletedTasks(), len(w.Tasks); got != want {
		t.Fatalf("completed %d/%d tasks", got, want)
	}
	events := c.Trace().Events()
	if tc.evicts {
		evicted := 0
		for _, e := range events {
			if e.Kind == trace.FileEvicted {
				evicted++
			}
		}
		if evicted == 0 {
			t.Fatal("trace has no FileEvicted events; the case no longer exercises eviction")
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != tc.wantHash {
		t.Fatalf("trace digest %s, want %s (%d events)", got, tc.wantHash, len(events))
	}
}

// TestTraceDigestsAtBenchmarkScale pins the simulator's decisions at the
// benchmark's scale, where the golden traces are too small to reach: the
// SHA-256 of each full trace CSV must match the digest recorded for the
// same run. A mismatch means a scheduling, transfer, retry or eviction
// decision changed.
func TestTraceDigestsAtBenchmarkScale(t *testing.T) {
	for _, tc := range []digestCase{
		{name: "topeft2000_seed1", build: digestTopEFT, seed: 1, wantHash: "a8869d53ad15b341df908b959ae19beb3ea6a9d7c52acc18ed39a31eeacb9d6e"},
		{name: "topeft2000_seed2", build: digestTopEFT, seed: 2, wantHash: "4d41b2c3072b8856d7be9b9fd348be244a5345c47aa3b8615020cd0442e60adf"},
		{name: "blast_evicting_seed1", build: digestBlastEvicting, seed: 1, evicts: true, wantHash: "c963f408e86c9e0947f0f528df1d7f49b7a080ca80c868092bd476c6f2c8f182"},
	} {
		t.Run(tc.name, tc.check)
	}
}

// TestTraceIndependentOfTaskOrder: the simulator indexes tasks by their
// position in ID order, whatever order the workload lists them in, so a
// workload with its task list reversed traces byte for byte like the
// original, under chaos (worker loss and recovery included).
func TestTraceIndependentOfTaskOrder(t *testing.T) {
	run := func(reverse bool) []byte {
		w := goldenTopEFT()
		if reverse {
			for i, j := 0, len(w.Tasks)-1; i < j; i, j = i+1, j-1 {
				w.Tasks[i], w.Tasks[j] = w.Tasks[j], w.Tasks[i]
			}
		}
		c := sim.NewCluster(w, sim.DefaultParams(), policy.DefaultLimits())
		c.InjectFaults(goldenChaos(1))
		c.Run()
		if got := c.CompletedTasks(); got != len(w.Tasks) {
			t.Fatalf("completed %d/%d tasks", got, len(w.Tasks))
		}
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, c.Trace().Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(false), run(true)) {
		t.Fatal("reversing the task list changed the trace")
	}
}
