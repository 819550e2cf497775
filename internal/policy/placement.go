package policy

import (
	"sort"

	"taskvine/internal/replica"
)

// This file implements workflow-aware lookahead placement: instead of
// moving data only when a task is already assigned (reactive staging,
// PlanTransfers), the planner looks at who *will* consume each file — the
// waiting queue and the file→consumer fan-out the manager already indexes —
// and moves data toward those consumers ahead of dispatch. Two moves:
//
//   - gather: pick the worker a queued task would most plausibly land on
//     (most input bytes present or arriving) and prefetch its missing
//     inputs there, so dispatch finds the data waiting instead of the
//     other way round;
//   - replicate: a file with many waiting consumers is copied to extra
//     workers before the fan-out stage hits, so the consumers spread
//     instead of serializing on one holder's upload limit.
//
// The planner is pure and deterministic: same snapshot, same actions. All
// safety is expressed here — per-worker placement byte budgets, source and
// destination concurrency caps shared with demand staging, a per-pass
// action cap. Lookahead (lookahead.go) is the one stateful engine around
// it, so both substrates (core and sim) inherit identical behaviour by
// construction.

// PlacementSpec configures the lookahead placement engine. The zero value
// is disabled; WithDefaults fills unset knobs.
type PlacementSpec struct {
	// Enabled turns lookahead placement on. Off by default: golden traces
	// and existing workloads are unchanged unless asked for.
	Enabled bool
	// LookaheadPerWorker bounds how many queued tasks may be gathering
	// inputs toward one worker at a time (default 2). It is the depth of
	// the per-worker "next up" window.
	LookaheadPerWorker int
	// FanoutThreshold is the waiting-consumer count at or above which a
	// file is speculatively replicated (default 4).
	FanoutThreshold int
	// MaxReplicas caps speculative replicas per file, counting existing
	// and in-flight copies (default 3).
	MaxReplicas int
	// DiskFraction is the fraction of a worker's disk capacity that
	// speculative placement may occupy (default 0.5). Workers reporting no
	// disk capacity are treated as unlimited.
	DiskFraction float64
	// MaxTransfersPerPass caps placement transfers issued in one
	// scheduling pass (default 8), bounding per-pass work and keeping
	// demand staging first in line for transfer slots.
	MaxTransfersPerPass int
}

// WithDefaults fills unset knobs with the defaults above.
func (s PlacementSpec) WithDefaults() PlacementSpec {
	if s.LookaheadPerWorker <= 0 {
		s.LookaheadPerWorker = 2
	}
	if s.FanoutThreshold <= 0 {
		s.FanoutThreshold = 4
	}
	if s.MaxReplicas <= 0 {
		s.MaxReplicas = 3
	}
	if s.DiskFraction <= 0 || s.DiskFraction > 1 {
		s.DiskFraction = 0.5
	}
	if s.MaxTransfersPerPass <= 0 {
		s.MaxTransfersPerPass = 8
	}
	return s
}

// PlacementKind labels one planned placement action.
type PlacementKind int

const (
	// PlacePrefetch gathers a queued task's input toward its likely worker.
	PlacePrefetch PlacementKind = iota
	// PlaceReplicate copies a high-fan-out file to an extra worker.
	PlaceReplicate
)

func (k PlacementKind) String() string {
	if k == PlaceReplicate {
		return "replicate"
	}
	return "prefetch"
}

// PlacementTask is one queued task the planner may gather inputs for.
type PlacementTask struct {
	ID    int
	Needs []FileNeed
}

// HotFile is one file whose waiting-consumer fan-out the caller tracks.
type HotFile struct {
	Need FileNeed
	// Consumers counts waiting/staging tasks listing the file as an input.
	Consumers int
}

// PlacementAction is one transfer the planner wants issued.
type PlacementAction struct {
	Kind   PlacementKind
	File   replica.FileH
	Size   int64 // -1 if unknown
	Source replica.Source
	Dest   replica.WorkerH
}

// BudgetFunc returns the placement bytes still available at a worker;
// negative means unlimited.
type BudgetFunc func(w replica.WorkerH) int64

// placePlan accumulates in-plan accounting so one pass never overloads a
// source, destination, or budget by itself — the same local-counts idiom as
// PlanTransfers. A pass issues at most MaxTransfersPerPass actions, so the
// per-destination accounting scans them rather than keeping maps.
type placePlan struct {
	spec      PlacementSpec
	limits    Limits
	v         *View
	budget    BudgetFunc
	actions   []PlacementAction
	localFrom sourceCounts
}

type placeKey struct {
	file replica.FileH
	dest replica.WorkerH
}

// localTo counts this plan's actions toward a worker and the bytes they
// charge its budget.
func (p *placePlan) localTo(w replica.WorkerH) (n int, charged int64) {
	for _, a := range p.actions {
		if a.Dest == w {
			n++
			charged += max(a.Size, 0)
		}
	}
	return n, charged
}

// PlanPlacement computes this pass's speculative transfers from a cluster
// snapshot: replication of high-fan-out files first (they unblock the most
// consumers per byte), then input gathering for the queue-front tasks. The
// caller provides tasks in queue order and hot files sorted by file ID;
// output order and content are deterministic.
//
// Planning mutates nothing. The caller issues the actions through its
// transfer supervisor and records what actually started.
func PlanPlacement(spec PlacementSpec, tasks []PlacementTask, hot []HotFile,
	workers []WorkerInfo, limits Limits, budget BudgetFunc, v *View) []PlacementAction {
	spec = spec.WithDefaults()
	if !spec.Enabled || len(workers) == 0 {
		return nil
	}
	p := &placePlan{
		spec:   spec,
		limits: limits.withDefaults(),
		v:      v,
		budget: budget,
	}
	p.planReplication(hot, workers)
	p.planGather(tasks, workers)
	return p.actions
}

// pendingAt reports whether the file is ready at, arriving at, or planned
// for the worker.
func (p *placePlan) pendingAt(file replica.FileH, worker replica.WorkerH) bool {
	if p.v.Reps.HasAny(file, worker) || p.v.Trs.Pending(file, worker) {
		return true
	}
	for _, a := range p.actions {
		if a.File == file && a.Dest == worker {
			return true
		}
	}
	return false
}

// availableAt extends pendingAt with birth sites: an input still being
// computed counts as present at the worker computing it.
func (p *placePlan) availableAt(n FileNeed, worker replica.WorkerH) bool {
	return p.pendingAt(n.ID, worker) || (n.BornAt != 0 && n.BornAt == worker)
}

// budgetAllows reports whether charging size more bytes to the worker stays
// inside its placement budget, counting this plan's earlier charges.
func (p *placePlan) budgetAllows(worker replica.WorkerH, size int64) bool {
	b := p.budget(worker)
	if b < 0 {
		return true
	}
	_, charged := p.localTo(worker)
	return charged+max(size, 0) <= b
}

// issue plans one transfer if the destination cap, the budget, and some
// source allow it.
func (p *placePlan) issue(kind PlacementKind, need FileNeed, dest replica.WorkerH) bool {
	if len(p.actions) >= p.spec.MaxTransfersPerPass {
		return false
	}
	if to, _ := p.localTo(dest); p.v.Trs.InFlightTo(dest)+to >= p.limits.destCap() {
		return false
	}
	if !p.budgetAllows(dest, need.Size) {
		return false
	}
	src, ok := chooseSource(need, dest, p.limits, p.v, p.localFrom)
	if !ok {
		return false
	}
	p.actions = append(p.actions, PlacementAction{
		Kind: kind, File: need.ID, Size: need.Size, Source: src, Dest: dest,
	})
	p.localFrom.add(src)
	return true
}

// planReplication copies files whose waiting fan-out crossed the threshold
// onto extra workers, up to MaxReplicas total copies per file (never more
// copies than consumers), preferring the least-loaded non-holders.
func (p *placePlan) planReplication(hot []HotFile, workers []WorkerInfo) {
	for _, hf := range hot {
		if len(p.actions) >= p.spec.MaxTransfersPerPass {
			return
		}
		if hf.Consumers < p.spec.FanoutThreshold {
			continue
		}
		want := p.spec.MaxReplicas
		if hf.Consumers < want {
			want = hf.Consumers
		}
		if len(workers) < want {
			want = len(workers)
		}
		have := 0
		var cands []WorkerInfo
		for _, w := range workers {
			if p.pendingAt(hf.Need.ID, w.ID) {
				have++
			} else {
				cands = append(cands, w)
			}
		}
		need := want - have
		if need <= 0 {
			continue
		}
		// Least incoming load first, join order as the tie-break — the
		// same preference as ChooseReplicationTargets, but aware of this
		// plan's own placements.
		load := func(w replica.WorkerH) int {
			n, _ := p.localTo(w)
			return p.v.Trs.InFlightTo(w) + n
		}
		sort.Slice(cands, func(i, j int) bool {
			li, lj := load(cands[i].ID), load(cands[j].ID)
			if li != lj {
				return li < lj
			}
			return cands[i].JoinOrder < cands[j].JoinOrder
		})
		for _, w := range cands {
			if need <= 0 {
				break
			}
			if p.issue(PlaceReplicate, hf.Need, w.ID) {
				need--
			}
		}
	}
}

// planGather walks the queue-front tasks and prefetches each one's missing
// inputs toward the worker already holding (or receiving) the most of its
// input bytes. A worker gathers for at most LookaheadPerWorker tasks at a
// time; a task fully served somewhere is skipped without consuming a slot.
func (p *placePlan) planGather(tasks []PlacementTask, workers []WorkerInfo) {
	slots := map[replica.WorkerH]int{}
	for _, task := range tasks {
		if len(p.actions) >= p.spec.MaxTransfersPerPass {
			return
		}
		if len(task.Needs) == 0 {
			continue
		}
		// Skip tasks some worker can already run data-complete (everything
		// ready, arriving, or being born there): gathering elsewhere would
		// duplicate data. The served task still occupies the serving
		// worker's lookahead slot — it IS that worker's next-up work — so
		// consecutive passes don't pile unbounded gathers onto one worker.
		var served replica.WorkerH
		for _, w := range workers {
			all := true
			for _, n := range task.Needs {
				if !p.availableAt(n, w.ID) {
					all = false
					break
				}
			}
			if all {
				served = w.ID
				break
			}
		}
		if served != 0 {
			slots[served]++
			continue
		}
		// Affinity target: most input bytes present, arriving, or being born;
		// ties fall to fewer running tasks, then join order — BestWorker's
		// rule, but ignoring resource fit (the task is not dispatching yet)
		// and crediting in-flight arrivals and birth sites. Crediting the
		// birth site is what aims a fan-in task's gathers at the worker whose
		// core frees exactly when the task becomes ready.
		best := -1
		var bestBytes int64 = -1
		for i, w := range workers {
			var got int64
			for _, n := range task.Needs {
				if p.availableAt(n, w.ID) {
					if n.Size > 0 {
						got += n.Size
					} else {
						got++
					}
				}
			}
			if best < 0 || got > bestBytes ||
				(got == bestBytes && less(workers[i], workers[best])) {
				best = i
				bestBytes = got
			}
		}
		target := workers[best]
		if slots[target.ID] >= p.spec.LookaheadPerWorker {
			// The natural target is already gathering for a full window;
			// gathering this task somewhere it has no affinity would waste
			// the transfer, so it simply waits for a later pass.
			continue
		}
		engaged := false
		for _, n := range task.Needs {
			if p.availableAt(n, target.ID) {
				engaged = true
				continue
			}
			if p.issue(PlacePrefetch, n, target.ID) {
				engaged = true
			}
		}
		if engaged {
			slots[target.ID]++
		}
	}
}
