package workloads

// Before/after makespan checks for lookahead placement on the paper's two
// headline workload shapes. These pin the tentpole's reason to exist: with
// placement on, BLAST and TopEFT must finish no later — and at these scales
// measurably earlier — than with placement off, and the baseline (off) runs
// must remain byte-identical to the golden scheduler.

import (
	"math"
	"testing"

	"taskvine/internal/policy"
	"taskvine/internal/sim"
)

// gatherOnly is default placement with replication out of reach: no
// file's fan-out reaches the threshold, so only the gather move runs.
var gatherOnly = policy.PlacementSpec{Enabled: true, FanoutThreshold: math.MaxInt}

// runSpan simulates a workload under a placement spec and returns the
// makespan.
func runSpan(t *testing.T, w *sim.Workload, spec policy.PlacementSpec) float64 {
	t.Helper()
	c := sim.NewCluster(w, sim.DefaultParams(), policy.Limits{})
	c.SetPlacement(spec)
	span := c.Run()
	if c.CompletedTasks() != len(w.Tasks) {
		t.Fatalf("completed %d/%d tasks (placement %+v)", c.CompletedTasks(), len(w.Tasks), spec)
	}
	return span
}

// checkPlacementGain logs the makespan with placement off, on, and
// gathering only, and requires default placement to beat off.
func checkPlacementGain(t *testing.T, name string, build func() *sim.Workload) {
	off := runSpan(t, build(), policy.PlacementSpec{})
	on := runSpan(t, build(), policy.PlacementSpec{Enabled: true})
	gather := runSpan(t, build(), gatherOnly)
	t.Logf("%s makespan: off=%.2fs on=%.2fs (%.1f%%) gather-only=%.2fs (%.1f%%)",
		name, off, on, 100*(off-on)/off, gather, 100*(off-gather)/off)
	if on >= off {
		t.Fatalf("placement did not improve %s makespan: %.3fs on vs %.3fs off", name, on, off)
	}
}

// placementBlast is the BLAST shape the tentpole targets: sequence-heavy
// batched queries (one 25 MB FASTA split shared by each batch of 12 tasks)
// on a modest pool, so each wave's batch file is a high-fan-out input that
// speculative replication can spread ahead of the wave. goldenBlast itself
// (tiny per-task queries, all workers present at t=0) has no
// placement-addressable transfer time and stays byte-identical under the
// golden determinism suite.
func placementBlast() *sim.Workload {
	return Blast(BlastConfig{Tasks: 120, Workers: 10, CoresPerWorker: 2,
		SoftwareTarMB: 30, DatabaseTarMB: 150, QueryRuntime: 5, UnpackRate: 100e6,
		QueryMB: 25, QueryBatch: 12})
}

func TestPlacementImprovesBlastMakespan(t *testing.T) {
	checkPlacementGain(t, "blast", placementBlast)
}

func TestPlacementImprovesTopEFTMakespan(t *testing.T) {
	checkPlacementGain(t, "topeft", goldenTopEFT)
}
