package policy

import (
	"testing"
	"testing/quick"

	"taskvine/internal/replica"
	"taskvine/internal/resources"
)

// testNames is the interner every test view shares, so tests can name
// files and workers by readable IDs: fh and wh turn them into handles.
var testNames = replica.NewNames()

func fh(id string) replica.FileH   { return testNames.Files.Intern(id) }
func wh(id string) replica.WorkerH { return testNames.Workers.Intern(id) }

func newView() *View { return NewView(testNames) }

func worker(id string, cores, join int) WorkerInfo {
	return WorkerInfo{ID: wh(id), Free: resources.R{Cores: cores, Memory: 64 * resources.GB, Disk: 100 * resources.GB}, JoinOrder: join}
}

func urlSource(u string) replica.Source { return testNames.FixedSource(replica.SourceURL, u) }

func managerSource() replica.Source { return testNames.FixedSource(replica.SourceManager, "manager") }

// plan runs PlanTransfers into a fresh Plan.
func plan(needs []FileNeed, w replica.WorkerH, limits Limits, v *View) Plan {
	var p Plan
	PlanTransfers(&p, needs, w, limits, v)
	return p
}

func TestBestWorkerPrefersCachedBytes(t *testing.T) {
	v := newView()
	v.Reps.Commit(fh("url-db"), wh("w2")) // w2 holds the big database
	needs := []FileNeed{
		{ID: fh("url-db"), Size: 500 * resources.MB, FixedSource: urlSource("http://x/db")},
		{ID: fh("buffer-q"), Size: 100, FixedSource: managerSource()},
	}
	workers := []WorkerInfo{worker("w1", 4, 0), worker("w2", 4, 1), worker("w3", 4, 2)}
	got, ok := BestWorker(needs, resources.R{Cores: 1}, workers, v)
	if !ok || got.ID != wh("w2") {
		t.Fatalf("BestWorker = %+v ok=%v, want w2", got, ok)
	}
}

func TestBestWorkerRespectsResources(t *testing.T) {
	v := newView()
	v.Reps.Commit(fh("f"), wh("w1"))
	workers := []WorkerInfo{
		{ID: wh("w1"), Free: resources.R{Cores: 1}, JoinOrder: 0}, // has data but no cores
		worker("w2", 8, 1),
	}
	got, ok := BestWorker([]FileNeed{{ID: fh("f"), Size: 100}}, resources.R{Cores: 4}, workers, v)
	if !ok || got.ID != wh("w2") {
		t.Fatalf("BestWorker = %+v, want w2 (w1 lacks cores)", got)
	}
	if _, ok := BestWorker(nil, resources.R{Cores: 64}, workers, v); ok {
		t.Fatal("impossible request scheduled")
	}
}

func TestBestWorkerTieBreaks(t *testing.T) {
	v := newView()
	w1 := worker("w1", 4, 0)
	w2 := worker("w2", 4, 1)
	w1.RunningTasks = 3
	got, ok := BestWorker(nil, resources.R{Cores: 1}, []WorkerInfo{w1, w2}, v)
	if !ok || got.ID != wh("w2") {
		t.Fatalf("tie-break by load failed: got %+v", got)
	}
	w1.RunningTasks = 0
	got, _ = BestWorker(nil, resources.R{Cores: 1}, []WorkerInfo{w2, w1}, v)
	if got.ID != wh("w1") {
		t.Fatalf("tie-break by join order failed: got %+v", got)
	}
}

func TestBestWorkerUnknownSizeCountsForLocality(t *testing.T) {
	v := newView()
	v.Reps.Commit(fh("temp-x"), wh("w2"))
	needs := []FileNeed{{ID: fh("temp-x"), Size: -1}}
	got, ok := BestWorker(needs, resources.R{Cores: 1},
		[]WorkerInfo{worker("w1", 4, 0), worker("w2", 4, 1)}, v)
	if !ok || got.ID != wh("w2") {
		t.Fatalf("unknown-size replica ignored: got %+v", got)
	}
}

func TestPlanReadyAndInFlight(t *testing.T) {
	v := newView()
	v.Reps.Commit(fh("a"), wh("w1"))
	v.Trs.Start(fh("b"), managerSource(), wh("w1"))
	needs := []FileNeed{
		{ID: fh("a"), Size: 10},
		{ID: fh("b"), Size: 10, FixedSource: managerSource()},
	}
	// Each input alone, then both: a is ready, b in flight, and nothing
	// is transferred or blocked.
	if p := plan(needs[:1], wh("w1"), Limits{}, v); p.Ready != 1 || p.InFlight != 0 {
		t.Fatalf("a: plan = %+v, want ready", p)
	}
	if p := plan(needs[1:], wh("w1"), Limits{}, v); p.Ready != 0 || p.InFlight != 1 {
		t.Fatalf("b: plan = %+v, want in flight", p)
	}
	p := plan(needs, wh("w1"), Limits{}, v)
	if p.Ready != 1 || p.InFlight != 1 || len(p.Transfers) != 0 || len(p.Blocked) > 0 {
		t.Fatalf("plan misclassified: %+v", p)
	}
}

func TestPlanPrefersWorkerOverFixedSource(t *testing.T) {
	v := newView()
	v.Reps.Commit(fh("url-db"), wh("w9"))
	needs := []FileNeed{{ID: fh("url-db"), Size: 100, FixedSource: urlSource("http://x/db")}}
	p := plan(needs, wh("w1"), Limits{}, v)
	if len(p.Transfers) != 1 {
		t.Fatalf("Transfers = %+v", p.Transfers)
	}
	if p.Transfers[0].Source.Kind != replica.SourceWorker || p.Transfers[0].Source.Worker() != wh("w9") {
		t.Fatalf("source = %+v, want worker w9", p.Transfers[0].Source)
	}
}

func TestPlanWaitsForPeersOnceFileIsInCluster(t *testing.T) {
	// Once a replica exists in the cluster, a saturated moment does not
	// fall back to the fixed source: the transfer waits for a peer slot
	// (this is what keeps archive load at a handful of fetches, §4.2).
	v := newView()
	v.Reps.Commit(fh("url-db"), wh("w9"))
	src := replica.WorkerSource(wh("w9"))
	limits := Limits{WorkerSource: 3}
	for i := 0; i < 3; i++ {
		v.Trs.Start(fh("url-db"), src, wh("other"))
	}
	needs := []FileNeed{{ID: fh("url-db"), Size: 100, FixedSource: urlSource("http://x/db")}}
	p := plan(needs, wh("w1"), limits, v)
	if len(p.Blocked) == 0 || len(p.Transfers) != 0 {
		t.Fatalf("plan = %+v, want blocked (wait for peer)", p)
	}
}

func TestPlanFixedSourceServesUpToItsLimitWhileEntering(t *testing.T) {
	// The file has no ready replica yet; transfers into the cluster are in
	// flight. The fixed source may serve additional workers up to its own
	// concurrency limit — this is why Colmena sees exactly limit-many (3)
	// shared-FS fetches before peers take over (§4.2).
	v := newView()
	usrc := urlSource("http://x/db")
	v.Trs.Start(fh("url-db"), usrc, wh("w9"))
	needs := []FileNeed{{ID: fh("url-db"), Size: 100, FixedSource: usrc}}
	p := plan(needs, wh("w1"), Limits{URLSource: 3}, v)
	if len(p.Transfers) != 1 || p.Transfers[0].Source.Kind != replica.SourceURL {
		t.Fatalf("plan = %+v, want URL transfer (1 of 3 in flight)", p)
	}
	// At the fixed source's limit, later workers wait.
	v.Trs.Start(fh("url-db"), usrc, wh("w8"))
	v.Trs.Start(fh("url-db"), usrc, wh("w7"))
	p = plan(needs, wh("w1"), Limits{URLSource: 3}, v)
	if len(p.Blocked) == 0 {
		t.Fatalf("plan = %+v, want blocked at URL limit", p)
	}
}

func TestPlanFallsBackToFixedWhenFileNotInCluster(t *testing.T) {
	// Cold start: nothing in the cluster, fixed source under its limit.
	v := newView()
	needs := []FileNeed{{ID: fh("url-db"), Size: 100, FixedSource: urlSource("http://x/db")}}
	p := plan(needs, wh("w1"), Limits{}, v)
	if len(p.Transfers) != 1 || p.Transfers[0].Source.Kind != replica.SourceURL {
		t.Fatalf("plan = %+v, want URL fetch on cold start", p)
	}
}

func TestPlanBlocksWhenAllSourcesSaturated(t *testing.T) {
	v := newView()
	v.Reps.Commit(fh("url-db"), wh("w9"))
	wsrc := replica.WorkerSource(wh("w9"))
	usrc := urlSource("http://x/db")
	for i := 0; i < 3; i++ {
		v.Trs.Start(fh("url-db"), wsrc, wh("o"))
	}
	for i := 0; i < 8; i++ {
		v.Trs.Start(fh("url-db"), usrc, wh("o"))
	}
	needs := []FileNeed{{ID: fh("url-db"), Size: 100, FixedSource: usrc}}
	p := plan(needs, wh("w1"), Limits{}, v)
	if len(p.Blocked) == 0 || len(p.Blocked) != 1 {
		t.Fatalf("plan = %+v, want blocked", p)
	}
}

func TestPlanBlocksFilesWithNoSourceYet(t *testing.T) {
	// A temp file whose producer has not run exists nowhere and has no
	// fixed source: the consumer must wait.
	v := newView()
	p := plan([]FileNeed{{ID: fh("temp-x"), Size: -1}}, wh("w1"), Limits{}, v)
	if len(p.Blocked) == 0 {
		t.Fatalf("plan = %+v, want stuck", p)
	}
}

func TestPlanSpreadsAcrossReplicaHolders(t *testing.T) {
	v := newView()
	v.Reps.Commit(fh("f"), wh("w8"))
	v.Reps.Commit(fh("f"), wh("w9"))
	// w8 already serving 2, w9 serving 0: choose w9.
	src8 := replica.WorkerSource(wh("w8"))
	v.Trs.Start(fh("f"), src8, wh("o1"))
	v.Trs.Start(fh("f"), src8, wh("o2"))
	p := plan([]FileNeed{{ID: fh("f"), Size: 1}}, wh("w1"), Limits{}, v)
	if len(p.Transfers) != 1 || p.Transfers[0].Source.Worker() != wh("w9") {
		t.Fatalf("plan = %+v, want w9 (least loaded)", p)
	}
}

func TestPlanLocalCountsPreventSelfOverload(t *testing.T) {
	// One task with 4 inputs all held only by w9 and a limit of 3: the
	// plan itself must not schedule 4 concurrent transfers from w9.
	v := newView()
	for _, f := range []string{"a", "b", "c", "d"} {
		v.Reps.Commit(fh(f), wh("w9"))
	}
	needs := []FileNeed{{ID: fh("a"), Size: 1}, {ID: fh("b"), Size: 1}, {ID: fh("c"), Size: 1}, {ID: fh("d"), Size: 1}}
	p := plan(needs, wh("w1"), Limits{WorkerSource: 3, WorkerDest: 16}, v)
	if len(p.Transfers) != 3 || len(p.Blocked) != 1 {
		t.Fatalf("plan = %+v, want 3 transfers + 1 blocked", p)
	}
}

func TestPlanRespectsDestLimit(t *testing.T) {
	v := newView()
	for _, f := range []string{"a", "b", "c"} {
		v.Reps.Commit(fh(f), wh("w9"))
	}
	needs := []FileNeed{{ID: fh("a"), Size: 1}, {ID: fh("b"), Size: 1}, {ID: fh("c"), Size: 1}}
	p := plan(needs, wh("w1"), Limits{WorkerDest: 2, WorkerSource: 16}, v)
	if len(p.Transfers) != 2 || len(p.Blocked) != 1 {
		t.Fatalf("plan = %+v, want 2 transfers + 1 blocked (dest limit)", p)
	}
}

func TestPlanNeverSourcesFromDestItself(t *testing.T) {
	v := newView()
	v.Reps.Commit(fh("f"), wh("w1")) // stale: planner asked for w1 anyway
	// Reps.Has(w1) is true so it is Ready, not transferred. But test the
	// chooseSource path with a pending state: replica at w1 is pending so
	// not Ready; the only ready holder is the dest itself.
	v2 := newView()
	v2.Reps.Add(fh("f"), wh("w1"), replica.Pending)
	p := plan([]FileNeed{{ID: fh("f"), Size: 1}}, wh("w1"), Limits{}, v2)
	if len(p.Transfers) != 0 {
		t.Fatalf("plan sourced file from its own destination: %+v", p)
	}
}

func TestUnlimitedSources(t *testing.T) {
	// Negative limit = unlimited: reproduces the unsupervised case of
	// Figure 11b.
	v := newView()
	v.Reps.Commit(fh("f"), wh("w9"))
	src := replica.WorkerSource(wh("w9"))
	for i := 0; i < 100; i++ {
		v.Trs.Start(fh("f"), src, wh("o"))
	}
	p := plan([]FileNeed{{ID: fh("f"), Size: 1}}, wh("w1"),
		Limits{WorkerSource: -1, WorkerDest: -1}, v)
	if len(p.Transfers) != 1 {
		t.Fatalf("unlimited source still blocked: %+v", p)
	}
}

func TestChooseReplicationTargets(t *testing.T) {
	v := newView()
	v.Reps.Commit(fh("f"), wh("w1"))
	v.Trs.Start(fh("f"), replica.WorkerSource(wh("w1")), wh("w2"))
	workers := []WorkerInfo{worker("w1", 4, 0), worker("w2", 4, 1), worker("w3", 4, 2), worker("w4", 4, 3)}
	got := ChooseReplicationTargets(fh("f"), 2, workers, v)
	if len(got) != 2 || got[0] != wh("w3") || got[1] != wh("w4") {
		t.Fatalf("targets = %v, want [w3 w4] (w1 holds, w2 pending)", got)
	}
	// Fewer incoming transfers beat join order, and n caps the list.
	v.Trs.Start(fh("g"), managerSource(), wh("w3"))
	got = ChooseReplicationTargets(fh("f"), 1, workers, v)
	if len(got) != 1 || got[0] != wh("w4") {
		t.Fatalf("targets = %v, want [w4] (w3 is receiving a transfer)", got)
	}
}

// TestDisabledPeerSourcesUseFixedSource: with worker sources disabled (the
// no-peer-transfer baseline of Figure 11a), a file already in the cluster
// still comes from its fixed source, within the manager's own limit.
func TestDisabledPeerSourcesUseFixedSource(t *testing.T) {
	v := newView()
	v.Reps.Commit(fh("f"), wh("w9"))
	need := FileNeed{ID: fh("f"), Size: 1, FixedSource: managerSource()}
	limits := Limits{WorkerSource: Disabled, ManagerSource: 1}
	p := plan([]FileNeed{need}, wh("w1"), limits, v)
	if len(p.Transfers) != 1 || p.Transfers[0].Source != managerSource() {
		t.Fatalf("plan = %+v, want one transfer from the manager", p)
	}
	v.Trs.Start(fh("f"), managerSource(), wh("w2"))
	if p = plan([]FileNeed{need}, wh("w1"), limits, v); len(p.Blocked) != 1 {
		t.Fatalf("plan = %+v, want f blocked at the manager's limit of 1", p)
	}
}

// TestDisabledDestBlocksEverything: a disabled destination limit admits no
// incoming transfer at all.
func TestDisabledDestBlocksEverything(t *testing.T) {
	v := newView()
	need := FileNeed{ID: fh("f"), Size: 1, FixedSource: urlSource("http://x/f")}
	p := plan([]FileNeed{need}, wh("w1"), Limits{WorkerDest: Disabled}, v)
	if len(p.Transfers) != 0 || len(p.Blocked) != 1 {
		t.Fatalf("plan = %+v, want f blocked", p)
	}
}

func TestDefaultLimits(t *testing.T) {
	l := DefaultLimits()
	if l.WorkerSource != 3 {
		t.Fatalf("paper's worker-source limit is 3, got %d", l.WorkerSource)
	}
	// Zero-value Limits resolve to defaults.
	z := Limits{}.withDefaults()
	if z != l {
		t.Fatalf("withDefaults = %+v want %+v", z, l)
	}
}

// Property: PlanTransfers never plans more transfers from one worker source
// than its limit, for any pre-existing load.
func TestQuickSourceLimitNeverExceeded(t *testing.T) {
	f := func(preload uint8, nfiles uint8, limit uint8) bool {
		lim := int(limit%5) + 1
		v := newView()
		src := replica.WorkerSource(wh("w9"))
		n := int(nfiles%8) + 1
		needs := make([]FileNeed, n)
		for i := 0; i < n; i++ {
			id := fh("f" + string(rune('0'+i)))
			v.Reps.Commit(id, wh("w9"))
			needs[i] = FileNeed{ID: id, Size: 1}
		}
		pre := int(preload % 6)
		for i := 0; i < pre; i++ {
			v.Trs.Start(fh("other"), src, wh("o"))
		}
		p := plan(needs, wh("w1"), Limits{WorkerSource: lim, WorkerDest: 100}, v)
		planned := 0
		for _, tr := range p.Transfers {
			if tr.Source == src {
				planned++
			}
		}
		// The plan may not push the source above its limit; if the source
		// was already at or over the limit, nothing new may be planned.
		allowed := lim - pre
		if allowed < 0 {
			allowed = 0
		}
		return planned <= allowed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPlanTransfersAllocatesNothing: refilling a caller-owned Plan reuses
// its slices and the view's scratch, so steady-state planning allocates
// nothing, transfers, blocked inputs and peer sources included.
func TestPlanTransfersAllocatesNothing(t *testing.T) {
	v := newView()
	for _, f := range []string{"a", "b", "c", "d"} {
		v.Reps.Commit(fh(f), wh("w8"))
		v.Reps.Commit(fh(f), wh("w9"))
	}
	needs := []FileNeed{
		{ID: fh("a"), Size: 1}, {ID: fh("b"), Size: 1}, {ID: fh("c"), Size: 1}, {ID: fh("d"), Size: 1},
		{ID: fh("u"), Size: 1, FixedSource: urlSource("http://x/u")}, {ID: fh("temp-y"), Size: -1},
	}
	var p Plan
	PlanTransfers(&p, needs, wh("w1"), Limits{}, v)
	if len(p.Transfers) == 0 || len(p.Blocked) == 0 {
		t.Fatalf("plan = %+v, want transfers and blocked inputs", p)
	}
	if n := testing.AllocsPerRun(100, func() { PlanTransfers(&p, needs, wh("w1"), Limits{}, v) }); n != 0 {
		t.Fatalf("PlanTransfers allocated %.1f times per plan", n)
	}
}

// TestViewCountsMaterializationsAsPending: a pending replica with no
// transfer behind it (a MiniTask materializing in place) is on its way.
func TestViewCountsMaterializationsAsPending(t *testing.T) {
	v := newView()
	v.Reps.Add(fh("mini"), wh("w0"), replica.Pending)
	if !v.TransferPending(fh("mini"), wh("w0")) || v.TransferPending(fh("mini"), wh("w1")) {
		t.Fatal("materialization not counted as pending at exactly its worker")
	}
	v.Trs.Start(fh("f"), managerSource(), wh("w1"))
	if !v.TransferPending(fh("f"), wh("w1")) || v.TransferPending(fh("f"), wh("w0")) {
		t.Fatal("in-flight transfer not visible through the view")
	}
}
