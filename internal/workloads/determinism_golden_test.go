package workloads

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"taskvine/internal/chaos"
	"taskvine/internal/policy"
	"taskvine/internal/sim"
	"taskvine/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden scheduling traces")

// goldenBlast is a scaled-down BLAST shape: many short query tasks sharing
// one software package and one database, both unpacked from archival URLs
// by MiniTasks — the workload whose dispatch rate §6 worries about.
func goldenBlast() *sim.Workload {
	cfg := DefaultBlast()
	cfg.Tasks = 120
	cfg.Workers = 10
	cfg.CoresPerWorker = 2
	cfg.QueryRuntime = 5
	return Blast(cfg)
}

// goldenTopEFT is a scaled-down TopEFT shape: a preprocess → process →
// accumulate DAG whose partial histograms stay in-cluster as temps.
func goldenTopEFT() *sim.Workload {
	cfg := DefaultTopEFT(false)
	cfg.ProcessTasks = 81
	cfg.FanIn = 3
	cfg.Workers = 8
	cfg.CoresPerWorker = 2
	cfg.ProcessRuntime = 10
	cfg.AccumulateRuntime = 5
	cfg.WorkerRampSeconds = 60
	return TopEFT(cfg)
}

// goldenChaos builds the seeded fault mix the golden runs execute under:
// probabilistic transfer failures and slowdowns plus a mid-run worker crash.
// Worker IDs follow the workloads package's w%03d naming.
func goldenChaos(seed int64) *chaos.Injector {
	return chaos.New(seed).
		Add(chaos.Rule{Point: chaos.Transfer, Action: chaos.Fail, P: 0.2, Count: 8}).
		Add(chaos.Rule{Point: chaos.Transfer, Action: chaos.Slow, P: 0.2, Count: 6, Delay: 2 * time.Second}).
		Add(chaos.Rule{Point: chaos.TaskRun, Action: chaos.Crash, Worker: "w003", After: 2, Count: 1})
}

// TestSchedulingDeterminismGolden pins the scheduler's decisions: the full
// execution trace of a BLAST-shaped and a TopEFT-shaped simulated workload,
// each under two chaos seeds, must match the committed golden CSVs byte for
// byte, so a change that claims to keep every placement, transfer and
// retry decision proves it here. Regenerate with
// `go test ./internal/workloads -run Golden -update` and inspect the diff
// before committing.
func TestSchedulingDeterminismGolden(t *testing.T) {
	cases := []struct {
		name  string
		build func() *sim.Workload
		seed  int64
	}{
		{"blast_seed1", goldenBlast, 1},
		{"blast_seed2", goldenBlast, 2},
		{"topeft_seed1", goldenTopEFT, 1},
		{"topeft_seed2", goldenTopEFT, 2},
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
			var buf bytes.Buffer
			if err := trace.WriteCSV(&buf, c.Trace().Events()); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".csv")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("scheduling trace diverged from golden %s:\n%s", path, firstDiff(buf.Bytes(), want))
			}
		})
	}
}

// firstDiff renders the first differing line of two CSV streams.
func firstDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	n := len(g)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d lines", len(g), len(w))
}
