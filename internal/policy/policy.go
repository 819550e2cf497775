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
	ID string
	// Free is the worker's uncommitted resource vector.
	Free resources.R
	// RunningTasks counts tasks currently executing, for tie-breaking.
	RunningTasks int
	// JoinOrder breaks final ties deterministically (arrival order).
	JoinOrder int
}

// FileNeed describes one input a task requires.
type FileNeed struct {
	ID   string
	Size int64 // -1 if unknown
	// FixedSource is where the bytes originate if no worker has a replica:
	// a URL for URLFiles, the manager for local/buffer files. Nil for
	// files that can only be produced in-cluster (temps, minitask
	// products), which have no fallback.
	FixedSource *replica.Source
	// BornAt names the worker currently assigned the task producing this
	// not-yet-existing file, if any. Lookahead placement treats the file as
	// if it were already there: a fan-in task becomes ready the moment its
	// last producer finishes — freeing a core on that very worker — so
	// gathering siblings toward it is the placement most likely to be
	// honored by dispatch. Only the placement path fills this; demand
	// staging ignores it.
	BornAt string
}

// View is the read-only cluster state the policy consults. Both the real
// manager and the simulator implement it over their own tables.
type View interface {
	// HasReplica reports whether worker holds a ready replica of file.
	HasReplica(file, worker string) bool
	// Replicas returns workers holding ready replicas of file.
	Replicas(file string) []string
	// InFlightFrom returns the source's current concurrent transfer count.
	InFlightFrom(src replica.Source) int
	// InFlightTo returns the worker's current incoming transfer count.
	InFlightTo(worker string) int
	// TransferPending reports whether file is already on its way to worker.
	TransferPending(file, worker string) bool
	// InFlightOf returns how many transfers of file are in flight to any
	// worker.
	InFlightOf(file string) int
}

// BestWorker picks the worker for a task: among workers whose free
// resources fit the request, choose the one holding the most input bytes
// (ties: fewer running tasks, then join order). Returns false if no worker
// fits. This is the "schedule tasks to match the cached files present at
// each worker" rule.
func BestWorker(needs []FileNeed, req resources.R, workers []WorkerInfo, v View) (WorkerInfo, bool) {
	return bestWorker(needs, req, workers, v, false)
}

// BestWorkerArrivalAware is BestWorker with one extension: input bytes
// already on their way to a worker count toward locality like bytes landed.
// Lookahead placement moves inputs ahead of dispatch, so dispatch must
// credit those arrivals — otherwise it races the speculative transfers it
// asked for and strands them. Callers use it only when placement is
// enabled, leaving baseline scheduling decisions untouched.
func BestWorkerArrivalAware(needs []FileNeed, req resources.R, workers []WorkerInfo, v View) (WorkerInfo, bool) {
	return bestWorker(needs, req, workers, v, true)
}

func bestWorker(needs []FileNeed, req resources.R, workers []WorkerInfo, v View, arrivals bool) (WorkerInfo, bool) {
	best := -1
	var bestBytes int64 = -1
	for i, w := range workers {
		if !req.Fits(w.Free) {
			continue
		}
		var cached int64
		for _, n := range needs {
			if v.HasReplica(n.ID, w.ID) || (arrivals && v.TransferPending(n.ID, w.ID)) {
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
	File string
	// Source supplies the bytes.
	Source replica.Source
}

// Plan is the outcome of transfer planning for one task on one worker.
type Plan struct {
	// Ready lists inputs already present at the worker.
	Ready []string
	// Transfers are the movements to start now.
	Transfers []TransferDecision
	// InFlight lists inputs already on their way to the worker.
	InFlight []string
	// Blocked lists inputs that cannot start now: every candidate source
	// is at its concurrency limit, or no source exists yet. The task must
	// wait and be re-planned on the next scheduling round.
	Blocked []string
}

// Complete reports whether every input is ready at the worker.
func (p Plan) Complete() bool {
	return len(p.Transfers) == 0 && len(p.InFlight) == 0 && len(p.Blocked) == 0
}

// Stuck reports whether progress is impossible right now (at least one
// blocked input and nothing in flight for it).
func (p Plan) Stuck() bool { return len(p.Blocked) > 0 }

// PlanTransfers decides, for every input a task needs at a target worker,
// whether it is present, in flight, transferable now (and from where), or
// blocked. The conservative strategy always prioritizes worker-to-worker
// transfers over the original fixed source; only when no replica-holding
// worker is under its limit does the fixed source get consulted, and it too
// must be under its limit (§3.3).
//
// Planning mutates nothing; the caller is responsible for recording started
// transfers so subsequent InFlightFrom calls observe them. Decisions within
// one plan do account for each other through the local counts map, so a
// single plan never overloads a source by itself.
func PlanTransfers(needs []FileNeed, worker string, limits Limits, v View) Plan {
	limits = limits.withDefaults()
	var plan Plan
	// localFrom is allocated on the first transfer picked: most plans
	// pick none, and chooseSource reads a nil map as all zeros.
	var localFrom map[replica.Source]int
	localTo := 0
	for _, n := range needs {
		switch {
		case v.HasReplica(n.ID, worker):
			plan.Ready = append(plan.Ready, n.ID)
			continue
		case v.TransferPending(n.ID, worker):
			plan.InFlight = append(plan.InFlight, n.ID)
			continue
		}
		if v.InFlightTo(worker)+localTo >= limits.destCap() {
			plan.Blocked = append(plan.Blocked, n.ID)
			continue
		}
		src, ok := chooseSource(n, worker, limits, v, localFrom)
		if !ok {
			plan.Blocked = append(plan.Blocked, n.ID)
			continue
		}
		plan.Transfers = append(plan.Transfers, TransferDecision{File: n.ID, Source: src})
		if localFrom == nil {
			localFrom = map[replica.Source]int{}
		}
		localFrom[src]++
		localTo++
	}
	return plan
}

// chooseSource returns the best available source for a file: a
// replica-holding worker under its limit (preferring the least-loaded to
// spread fan-out), otherwise the fixed source if it is under its limit.
//
// The conservative strategy always prioritizes worker transfers over the
// original fixed source (§3.3). That preference extends in time: once the
// object is already present in — or on its way into — the cluster, and
// worker transfers are permitted, a saturated moment does not fall back to
// the fixed source; the transfer waits for a peer slot instead. This is
// what keeps archive/shared-FS load at a handful of fetches no matter how
// many workers need the object (the 108 → 3 observation of §4.2).
func chooseSource(n FileNeed, dest string, limits Limits, v View, local map[replica.Source]int) (replica.Source, bool) {
	holders := v.Replicas(n.ID)
	sort.Strings(holders) // determinism
	bestLoad := -1
	inCluster := 0
	var best replica.Source
	for _, h := range holders {
		if h == dest {
			continue
		}
		inCluster++
		src := replica.Source{Kind: replica.SourceWorker, ID: h}
		load := v.InFlightFrom(src) + local[src]
		if load >= limits.sourceCap(replica.SourceWorker) {
			continue
		}
		if bestLoad < 0 || load < bestLoad {
			bestLoad = load
			best = src
		}
	}
	if bestLoad >= 0 {
		return best, true
	}
	if limits.sourceCap(replica.SourceWorker) > 0 && inCluster > 0 {
		// Ready replicas exist in the cluster but all holders are at their
		// limit: wait for a peer slot rather than load the fixed source
		// again. While the object is merely *entering* the cluster (in
		// flight, no ready replica yet), the fixed source may still serve
		// up to its own concurrency limit — the paper's Colmena run shows
		// exactly limit-many (3) shared-FS fetches before peers take over.
		return replica.Source{}, false
	}
	if n.FixedSource != nil {
		src := *n.FixedSource
		if v.InFlightFrom(src)+local[src] < limits.sourceCap(src.Kind) {
			return src, true
		}
	}
	return replica.Source{}, false
}

// ChooseReplicationTargets selects up to n workers that should receive an
// extra replica of a hot file, preferring workers that do not yet hold it
// and are receiving the fewest transfers. Used to pre-stage widely shared
// inputs (software packages) ahead of task demand.
func ChooseReplicationTargets(file string, n int, workers []WorkerInfo, v View) []string {
	type cand struct {
		id   string
		load int
		join int
	}
	var cands []cand
	for _, w := range workers {
		if v.HasReplica(file, w.ID) || v.TransferPending(file, w.ID) {
			continue
		}
		cands = append(cands, cand{w.ID, v.InFlightTo(w.ID), w.JoinOrder})
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
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}
