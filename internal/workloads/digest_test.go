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

// TestTraceDigestsAtBenchmarkScale pins the simulator's decisions at the
// benchmark's scale, where the golden traces are too small to reach: the
// SHA-256 of each full trace CSV must match the digest recorded for the
// same run before the scheduling pass was made incremental. A mismatch
// means a scheduling, transfer, or eviction decision changed.
func TestTraceDigestsAtBenchmarkScale(t *testing.T) {
	cases := []struct {
		name     string
		build    func() *sim.Workload
		seed     int64
		evicts   bool
		wantHash string
	}{
		{"topeft2000_seed1", digestTopEFT, 1, false, "4cbbc5db14ca4d5f67d60d43a42a5264adc0535693a61df4660741c19e50d8b4"},
		{"topeft2000_seed2", digestTopEFT, 2, false, "0a9e270a459fd23da24e29904079e3917ef125c2fc7612507a5da7e091558efe"},
		{"blast_evicting_seed1", digestBlastEvicting, 1, true, "da900c2785085c14481857b88a1dd126681bbbf687804f1b0f737b5350135d05"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.build()
			c := sim.NewCluster(w, sim.DefaultParams(), policy.DefaultLimits())
			c.InjectFaults(goldenChaos(tc.seed))
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
		})
	}
}
