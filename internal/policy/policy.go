// Package policy implements TaskVine's conservative scheduling strategy
// (§3.3) as a pure, deterministic library over state snapshots.
//
// Both the production manager (internal/core) and the discrete-event
// simulator (internal/sim) drive this package, so simulated experiments
// exercise exactly the scheduling logic that runs in production.
//
// The strategy: tasks are scheduled primarily to match the cached files
// present at each worker — the worker possessing the most input bytes wins.
// When no worker has the data, the task goes to an arbitrary worker and
// file transfers are scheduled just before dispatch. Transfers always
// prefer an existing replica at a peer worker over the fixed source (URL or
// manager), subject to per-source concurrent transfer limits that prevent
// hotspots.
package policy

import (
	"sort"

	"taskvine/internal/replica"
	"taskvine/internal/resources"
)

// Unlimited removes a source's concurrency bound (the unsupervised case of
// Figure 11b); Disabled forbids the source entirely (the no-peer-transfer
// baseline of Figure 11a).
const (
	Unlimited = -1
	Disabled  = -2
)

// Limits bounds concurrent transfers per source, the central knob of the
// Figure 11 experiment. Zero values mean "use default"; Unlimited and
// Disabled are accepted in any field.
type Limits struct {
	// WorkerSource bounds concurrent outgoing peer transfers per worker.
	// The paper finds 3 performs slightly better than 2 or 4.
	WorkerSource int
	// URLSource bounds concurrent downloads per remote URL.
	URLSource int
	// ManagerSource bounds concurrent sends by the manager.
	ManagerSource int
	// WorkerDest bounds concurrent incoming transfers per worker.
	WorkerDest int
}

// DefaultLimits returns the paper's production configuration.
func DefaultLimits() Limits {
	return Limits{WorkerSource: 3, URLSource: 8, ManagerSource: 8, WorkerDest: 4}
}

func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.WorkerSource == 0 {
		l.WorkerSource = d.WorkerSource
	}
	if l.URLSource == 0 {
		l.URLSource = d.URLSource
	}
	if l.ManagerSource == 0 {
		l.ManagerSource = d.ManagerSource
	}
	if l.WorkerDest == 0 {
		l.WorkerDest = d.WorkerDest
	}
	return l
}

// sourceCap returns the limit for a given source, honoring "negative means
// unlimited".
func (l Limits) sourceCap(kind replica.SourceKind) int {
	var v int
	switch kind {
	case replica.SourceWorker:
		v = l.WorkerSource
	case replica.SourceURL:
		v = l.URLSource
	default:
		v = l.ManagerSource
	}
	switch {
	case v == Disabled:
		return 0
	case v < 0:
		return int(^uint(0) >> 1) // unlimited
	default:
		return v
	}
}

func (l Limits) destCap() int {
	switch {
	case l.WorkerDest == Disabled:
		return 0
	case l.WorkerDest < 0:
		return int(^uint(0) >> 1)
	default:
		return l.WorkerDest
	}
}

// WorkerInfo is a scheduling snapshot of one worker.
type WorkerInfo struct {
	ID replica.WorkerH
	// Free is the worker's uncommitted resource vector.
	Free resources.R
	// RunningTasks counts tasks currently executing, for tie-breaking.
	RunningTasks int
	// JoinOrder breaks final ties deterministically (arrival order).
	JoinOrder int
}

// FileNeed describes one input a task requires.
type FileNeed struct {
	ID   replica.FileH
	Size int64 // -1 if unknown
	// FixedSource is where the bytes originate if no worker has a replica:
	// a URL for URLFiles, the manager for local/buffer files. Zero for
	// files that can only be produced in-cluster (temps, minitask
	// products), which have no fallback.
	FixedSource replica.Source
}

// View is the read-only cluster state the policy consults: the replica
// and transfer tables of the real manager or of the simulator. Its owner
// is single-threaded, so the View keeps the policy's scratch buffers.
type View struct {
	Reps *replica.Table
	Trs  *replica.Transfers
	// holders is chooseSource's scratch.
	holders []replica.WorkerH
}

// NewView returns a view over fresh tables sharing names.
func NewView(names *replica.Names) *View {
	return &View{Reps: replica.NewTable(names), Trs: replica.NewTransfers(names)}
}

// TransferPending treats both supervised network transfers and in-progress
// MiniTask materializations (pending replica entries without a transfer)
// as "already on the way", so the planner never double-instructs a worker
// for the same object.
func (v *View) TransferPending(f replica.FileH, w replica.WorkerH) bool {
	if v.Trs.Pending(f, w) {
		return true
	}
	s, ok := v.Reps.State(f, w)
	return ok && s == replica.Pending
}

// BestWorker picks the worker for a task: among workers whose free
// resources fit the request, choose the one holding the most input bytes
// (ties: fewer running tasks, then join order). Returns false if no worker
// fits. This is the "schedule tasks to match the cached files present at
// each worker" rule.
func BestWorker(needs []FileNeed, req resources.R, workers []WorkerInfo, v *View) (WorkerInfo, bool) {
	best := -1
	var bestBytes int64 = -1
	for i, w := range workers {
		if !req.Fits(w.Free) {
			continue
		}
		var cached int64
		for _, n := range needs {
			if v.Reps.Has(n.ID, w.ID) {
				if n.Size > 0 {
					cached += n.Size
				} else {
					cached++ // unknown size still counts for locality
				}
			}
		}
		if best < 0 || cached > bestBytes ||
			(cached == bestBytes && less(workers[i], workers[best])) {
			best = i
			bestBytes = cached
		}
	}
	if best < 0 {
		return WorkerInfo{}, false
	}
	return workers[best], true
}

func less(a, b WorkerInfo) bool {
	if a.RunningTasks != b.RunningTasks {
		return a.RunningTasks < b.RunningTasks
	}
	return a.JoinOrder < b.JoinOrder
}

// TransferDecision is the planned action for one missing input.
type TransferDecision struct {
	File replica.FileH
	// Source supplies the bytes.
	Source replica.Source
}

// Plan is the outcome of transfer planning for one task on one worker.
// Callers keep one Plan and refill it: planning reuses its slices, so it
// allocates nothing in steady state.
type Plan struct {
	// Ready counts inputs already present at the worker.
	Ready int
	// InFlight counts inputs already on their way to the worker.
	InFlight int
	// Transfers are the movements to start now.
	Transfers []TransferDecision
	// Blocked lists inputs that cannot start now: every candidate source
	// is at its concurrency limit, or no source exists yet. The task must
	// wait and be re-planned on the next scheduling round.
	Blocked []replica.FileH
	// local counts this plan's transfers per source.
	local sourceCounts
}

// sourceCounts counts planned transfers per source. A plan picks few
// distinct sources, so a scan beats a map.
type sourceCounts []sourceCount

type sourceCount struct {
	src replica.Source
	n   int
}

func (c sourceCounts) of(src replica.Source) int {
	for _, sc := range c {
		if sc.src == src {
			return sc.n
		}
	}
	return 0
}

func (c *sourceCounts) add(src replica.Source) {
	for i := range *c {
		if (*c)[i].src == src {
			(*c)[i].n++
			return
		}
	}
	*c = append(*c, sourceCount{src, 1})
}

// PlanTransfers decides, for every input a task needs at a target worker,
// whether it is present, in flight, transferable now (and from where), or
// blocked, and writes the outcome into plan. The conservative strategy
// always prioritizes worker-to-worker transfers over the original fixed
// source; only when no replica-holding worker is under its limit does the
// fixed source get consulted, and it too must be under its limit (§3.3).
//
// Planning mutates no table; the caller is responsible for recording
// started transfers so subsequent InFlightFrom calls observe them.
// Decisions within one plan do account for each other through the plan's
// local counts, so a single plan never overloads a source by itself.
func PlanTransfers(plan *Plan, needs []FileNeed, worker replica.WorkerH, limits Limits, v *View) {
	limits = limits.withDefaults()
	plan.Ready, plan.InFlight = 0, 0
	plan.Transfers, plan.Blocked, plan.local = plan.Transfers[:0], plan.Blocked[:0], plan.local[:0]
	for _, n := range needs {
		switch {
		case v.Reps.Has(n.ID, worker):
			plan.Ready++
			continue
		case v.TransferPending(n.ID, worker):
			plan.InFlight++
			continue
		}
		if v.Trs.InFlightTo(worker)+len(plan.Transfers) >= limits.destCap() {
			plan.Blocked = append(plan.Blocked, n.ID)
			continue
		}
		src, ok := chooseSource(n, limits, v, plan.local)
		if !ok {
			plan.Blocked = append(plan.Blocked, n.ID)
			continue
		}
		plan.Transfers = append(plan.Transfers, TransferDecision{File: n.ID, Source: src})
		plan.local.add(src)
	}
}

// chooseSource returns the best available source for a file: a
// replica-holding worker under its limit (preferring the least-loaded to
// spread fan-out, then the lexically least worker ID), otherwise the fixed
// source if it is under its limit.
//
// The conservative strategy always prioritizes worker transfers over the
// original fixed source (§3.3). That preference extends in time: once the
// object is already present in — or on its way into — the cluster, and
// worker transfers are permitted, a saturated moment does not fall back to
// the fixed source; the transfer waits for a peer slot instead. This is
// what keeps archive/shared-FS load at a handful of fetches no matter how
// many workers need the object (the 108 → 3 observation of §4.2).
//
// The destination never holds a ready replica of the file (PlanTransfers
// counts that as ready), so every holder is a candidate source.
func chooseSource(n FileNeed, limits Limits, v *View, local sourceCounts) (replica.Source, bool) {
	v.holders = v.Reps.AppendLocate(v.holders[:0], n.ID)
	workers := &v.Reps.Names().Workers
	bestLoad := -1
	var best replica.Source
	for _, h := range v.holders {
		src := replica.WorkerSource(h)
		load := v.Trs.InFlightFrom(src) + local.of(src)
		if load >= limits.sourceCap(replica.SourceWorker) {
			continue
		}
		// Holders come in handle (join) order; ties go to the lexically
		// least worker ID, as they would over a name-sorted holder list.
		if bestLoad < 0 || load < bestLoad ||
			(load == bestLoad && workers.Name(h) < workers.Name(best.Worker())) {
			bestLoad = load
			best = src
		}
	}
	if bestLoad >= 0 {
		return best, true
	}
	if limits.sourceCap(replica.SourceWorker) > 0 && len(v.holders) > 0 {
		// Ready replicas exist in the cluster but all holders are at their
		// limit: wait for a peer slot rather than load the fixed source
		// again. While the object is merely *entering* the cluster (in
		// flight, no ready replica yet), the fixed source may still serve
		// up to its own concurrency limit — the paper's Colmena run shows
		// exactly limit-many (3) shared-FS fetches before peers take over.
		return replica.Source{}, false
	}
	if src := n.FixedSource; !src.IsZero() {
		if v.Trs.InFlightFrom(src)+local.of(src) < limits.sourceCap(src.Kind) {
			return src, true
		}
	}
	return replica.Source{}, false
}

// ChooseReplicationTargets selects up to n workers that should receive an
// extra replica of a hot file, preferring workers that do not yet hold it
// and are receiving the fewest transfers. Used to pre-stage widely shared
// inputs (software packages) ahead of task demand.
func ChooseReplicationTargets(file replica.FileH, n int, workers []WorkerInfo, v *View) []replica.WorkerH {
	type cand struct {
		id   replica.WorkerH
		load int
		join int
	}
	var cands []cand
	for _, w := range workers {
		if v.Reps.Has(file, w.ID) || v.TransferPending(file, w.ID) {
			continue
		}
		cands = append(cands, cand{w.ID, v.Trs.InFlightTo(w.ID), w.JoinOrder})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		return cands[i].join < cands[j].join
	})
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]replica.WorkerH, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}
