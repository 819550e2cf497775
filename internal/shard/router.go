// Package shard implements a sharded manager control plane: N independent
// core.Manager event loops ("shards") running in one process behind a
// Router that preserves the single-manager API. On a many-core node the
// single event loop of internal/core serializes all scheduling; sharding
// multiplies dispatch throughput by running several loops in parallel
// while keeping each loop's no-lock invariant intact.
//
// The router's job is to make N loops look like one manager:
//
//   - Workflow-affinity routing. Tasks coupled through cluster-resident
//     files (Temp or Handle inputs, any output) form a workflow component
//     that is pinned to one shard, chosen by consistent hashing, so a
//     DAG's dependency graph, replica table, and placement state stay
//     shard-local and no cross-shard coordination is ever needed on the
//     scheduling hot path. Unrelated tasks round-robin across shards.
//   - Task-ID virtualization. The router assigns globally unique task IDs
//     and remaps each shard's local IDs in results, so applications see
//     one ID space.
//   - Worker leasing. Arriving workers are partitioned across shards; a
//     queue-depth-aware balancer migrates idle shards' workers to
//     backlogged ones through the worker's redirect/reconnect path
//     (core.Manager.RedirectWorker), cache intact.
//   - Per-tenant fair share. With a quota configured, each tenant may
//     occupy at most TenantQuota in-flight submissions across the cluster;
//     the excess waits in a router-side hold queue, so one saturating
//     tenant cannot delay another tenant's dispatch beyond its quota.
//
// All shards share one files.Registry (declarations are global) and one
// metrics.Registry (one /metrics surface); each shard keeps a private
// trace log so per-shard traces remain exactly what a single manager
// would have produced.
package shard

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strconv"
	"sync"
	"time"

	"taskvine/internal/catalog"
	"taskvine/internal/core"
	"taskvine/internal/files"
	"taskvine/internal/metrics"
	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
	"taskvine/internal/trace"
)

// Config parameterizes a Router.
type Config struct {
	// Shards is the number of manager event loops; default 1.
	Shards int
	// Manager is the template configuration applied to every shard.
	// ListenAddr names shard 0's listener; the rest take ephemeral
	// loopback ports (discover them with Addrs or the catalog). A non-nil
	// Files registry is shared as-is; otherwise the router allocates one
	// registry shared by all shards.
	Manager core.Config
	// TenantQuota bounds each tenant's in-flight submissions; 0 disables
	// fair-share holds. Function invocations bypass the hold queue (they
	// ride the latency-sensitive fast path) but tasks submitted through
	// Submit are held once the tenant's quota is exhausted.
	TenantQuota int
	// VirtualNodes is the consistent-hash ring's points per shard;
	// default 64.
	VirtualNodes int
	// LeaseInterval is the worker-lease balancer's probe period; default
	// 500ms, negative disables balancing.
	LeaseInterval time.Duration
	// LeaseThreshold is the minimum queue depth a backlogged shard must
	// show before an idle shard's worker is leased to it; default 4.
	LeaseThreshold int
	// Name and CatalogAddr advertise each shard to a catalog server as
	// "<name>/shard<i>" when CatalogAddr is set.
	Name        string
	CatalogAddr string
	// Logger receives router operational messages; nil silences them.
	Logger *log.Logger
}

// route is the router's record of one global task ID.
type route struct {
	shard  int
	local  int // shard-local task ID; -1 while held or mid-submission
	tenant string
	// counted reports whether the task occupies a tenant quota slot.
	counted bool
}

// held is a quota-held submission waiting for its tenant's slot.
type held struct {
	gid   int
	spec  *taskspec.Spec
	shard int
}

type tenantState struct {
	inflight int
	held     []held
}

type orphanKey struct {
	shard int
	local int
}

// Router runs N manager shards behind the single-manager API.
type Router struct {
	cfg    Config
	shards []*core.Manager
	reg    *files.Registry
	vm     *metrics.VineMetrics
	advs   []*catalog.Advertiser

	// mu guards the routing state below. It is never held across a call
	// into a shard, so shard event loops can never deadlock against it.
	mu       sync.Mutex
	aff      *affinity // guarded by mu
	hashRing *ring     // guarded by mu; built lazily on first routed key
	rr       int       // guarded by mu; round-robin cursor for unaffiliated work
	next int            // guarded by mu; last global task ID handed out
	rts  map[int]route  // guarded by mu; global ID -> route
	gids []map[int]int  // guarded by mu; per-shard local ID -> global ID
	// orphans parks results whose submission bookkeeping has not caught
	// up yet (the shard answered before Submit returned). guarded by mu
	orphans     map[orphanKey]*core.Result
	tenants     map[string]*tenantState // guarded by mu
	outstanding int                     // guarded by mu; unfinished global tasks
	closed      bool                    // guarded by mu

	// Result plumbing mirrors core.Manager: pumps append under resMu and
	// signal; deliverLoop feeds the buffered channel Wait reads, so a slow
	// application never blocks a pump (and thus never delays quota
	// release for other tenants).
	results chan *core.Result
	resMu   sync.Mutex
	resQ    []*core.Result // guarded by resMu
	resSig  chan struct{}

	done     chan struct{}
	pumpCtx  context.Context
	pumpStop context.CancelFunc
	bg       sync.WaitGroup
	start    time.Time
}

// New starts a router with cfg.Shards manager event loops.
func New(cfg Config) (*Router, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.LeaseInterval == 0 {
		cfg.LeaseInterval = 500 * time.Millisecond
	}
	if cfg.LeaseThreshold <= 0 {
		cfg.LeaseThreshold = 4
	}
	if (cfg.Manager.DefaultTaskResources == resources.R{}) {
		cfg.Manager.DefaultTaskResources = resources.R{Cores: 1}
	}
	reg := cfg.Manager.Files
	if reg == nil {
		reg = files.NewRegistry(cfg.Manager.Head)
	}
	mreg := cfg.Manager.Metrics
	if mreg == nil {
		mreg = metrics.NewRegistry()
	}
	pumpCtx, pumpStop := context.WithCancel(context.Background())
	r := &Router{
		cfg:      cfg,
		reg:      reg,
		vm:       metrics.ForRegistry(mreg),
		aff:      newAffinity(),
		rts:      make(map[int]route),
		orphans:  make(map[orphanKey]*core.Result),
		tenants:  make(map[string]*tenantState),
		results:  make(chan *core.Result, 4096),
		resSig:   make(chan struct{}, 1),
		done:     make(chan struct{}),
		pumpCtx:  pumpCtx,
		pumpStop: pumpStop,
		start:    time.Now(),
	}
	for i := 0; i < cfg.Shards; i++ {
		sc := cfg.Manager
		sc.Files = reg
		sc.Metrics = mreg
		// Each shard keeps a private trace log: a shard's trace is exactly
		// what a single manager scheduling the same workload would log,
		// which the conformance tests rely on. The metrics bridge folds
		// every shard's events into the one shared registry.
		sc.Trace = nil
		if i > 0 {
			sc.ListenAddr = "127.0.0.1:0"
			if sc.TraceFile != "" {
				sc.TraceFile = fmt.Sprintf("%s.shard%d", sc.TraceFile, i)
			}
		}
		m, err := core.NewManager(sc)
		if err != nil {
			for _, prev := range r.shards {
				prev.Close()
			}
			pumpStop()
			return nil, fmt.Errorf("shard: starting shard %d: %w", i, err)
		}
		r.shards = append(r.shards, m)
		r.gids = append(r.gids, make(map[int]int))
	}
	for i := range r.shards {
		i := i
		r.bg.Add(1)
		go r.pump(i)
	}
	r.bg.Add(1)
	go r.deliverLoop()
	if cfg.LeaseInterval > 0 && cfg.Shards > 1 {
		r.bg.Add(1)
		go r.balanceLoop()
	}
	if cfg.CatalogAddr != "" {
		name := cfg.Name
		if name == "" {
			name = "taskvine"
		}
		for i, sh := range r.shards {
			sh := sh
			r.advs = append(r.advs, catalog.NewAdvertiser(
				cfg.CatalogAddr, fmt.Sprintf("%s/shard%d", name, i), 0,
				func() catalog.Entry {
					s := sh.Status()
					return catalog.Entry{
						Addr:         s.Addr,
						Workers:      len(s.Workers),
						TasksWaiting: s.TasksWaiting,
						TasksRunning: s.TasksRunning,
					}
				}))
		}
	}
	return r, nil
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Printf("shard: "+format, args...)
	}
}

// Shards returns the number of shards.
func (r *Router) Shards() int { return len(r.shards) }

// Shard returns the i-th shard's manager, for tests and per-shard
// introspection.
func (r *Router) Shard(i int) *core.Manager { return r.shards[i] }

// Addr returns shard 0's worker-facing address. Use Addrs to spread
// workers across all shards.
func (r *Router) Addr() string { return r.shards[0].Addr() }

// Addrs returns every shard's worker-facing address in shard order.
// Launchers should spread workers round-robin across these; the lease
// balancer corrects any imbalance afterwards.
func (r *Router) Addrs() []string {
	out := make([]string, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.Addr()
	}
	return out
}

// Files returns the registry shared by all shards.
func (r *Router) Files() *files.Registry { return r.reg }

// Trace returns shard 0's execution log. Each shard keeps its own log;
// reach the others through Shard(i).Trace().
func (r *Router) Trace() *trace.Log { return r.shards[0].Trace() }

// Metrics returns the instrument registry shared by all shards.
func (r *Router) Metrics() *metrics.Registry { return r.shards[0].Metrics() }

func shardLabel(i int) string { return strconv.Itoa(i) }

// routeKeys collects the spec's affinity keys: the explicit workflow
// label, cluster-resident inputs (Temp, Handle), and every output. Files
// that can be materialized anywhere (Local, Buffer, URL, MiniTask inputs)
// impose no affinity.
func (r *Router) routeKeys(spec *taskspec.Spec) []string {
	var keys []string
	if spec.Workflow != "" {
		keys = append(keys, "workflow:"+spec.Workflow)
	}
	for _, mt := range spec.Inputs {
		if f, ok := r.reg.Lookup(mt.FileID); ok && (f.Type == files.Temp || f.Type == files.Handle) {
			keys = append(keys, mt.FileID)
		}
	}
	for _, mt := range spec.Outputs {
		keys = append(keys, mt.FileID)
	}
	return keys
}

// routeLocked picks the spec's shard under r.mu: union its affinity keys,
// follow an existing component binding, or bind a fresh component via the
// consistent-hash ring. Key-less tasks round-robin.
func (r *Router) routeLocked(spec *taskspec.Spec) (int, error) {
	keys := r.routeKeys(spec)
	if len(keys) == 0 {
		s := r.rr % len(r.shards)
		r.rr++
		return s, nil
	}
	anchor := keys[0]
	for _, k := range keys[1:] {
		if err := r.aff.union(anchor, k); err != nil {
			return 0, err
		}
	}
	if s, ok := r.aff.shardOf(anchor); ok {
		return s, nil
	}
	s := r.ringLocked().lookup(anchor)
	r.aff.bind(anchor, s)
	return s, nil
}

// ringLocked returns the ring for the current shard count, building it on
// first use; the count is fixed per router. Callers hold r.mu.
func (r *Router) ringLocked() *ring {
	if r.hashRing == nil {
		r.hashRing = newRing(len(r.shards), r.cfg.VirtualNodes)
	}
	return r.hashRing
}

// Submit queues a task and returns its global ID. The shard is chosen by
// workflow affinity; a task joining two workflows already bound to
// different shards is refused. When the tenant's quota is exhausted the
// task is held at the router and submitted as the tenant's earlier tasks
// finish.
func (r *Router) Submit(spec *taskspec.Spec) (int, error) {
	// Validate eagerly, exactly as core.Submit would, so quota-held
	// submissions report errors synchronously; the clone is the router's
	// to hold and eventually the shard's to own.
	clone := spec.Clone()
	clone.Resources = clone.Resources.Defaulted(r.cfg.Manager.DefaultTaskResources)
	for _, mt := range append(append([]taskspec.Mount(nil), clone.Inputs...), clone.Outputs...) {
		if _, ok := r.reg.Lookup(mt.FileID); !ok {
			return 0, fmt.Errorf("core: task references undeclared file %s", mt.FileID)
		}
	}
	if err := clone.Validate(); err != nil {
		return 0, err
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, fmt.Errorf("shard: router is shutting down")
	}
	s, err := r.routeLocked(clone)
	if err != nil {
		r.mu.Unlock()
		return 0, err
	}
	r.next++
	gid := r.next
	ten := r.tenantLocked(clone.Tenant)
	r.outstanding++
	if r.cfg.TenantQuota > 0 && ten.inflight >= r.cfg.TenantQuota {
		ten.held = append(ten.held, held{gid: gid, spec: clone, shard: s})
		r.rts[gid] = route{shard: s, local: -1, tenant: clone.Tenant}
		r.mu.Unlock()
		r.vm.ShardQuotaThrottles.Inc()
		return gid, nil
	}
	ten.inflight++
	r.rts[gid] = route{shard: s, local: -1, tenant: clone.Tenant, counted: true}
	r.mu.Unlock()

	if err := r.submitTo(gid, s, clone); err != nil {
		r.mu.Lock()
		delete(r.rts, gid)
		r.outstanding--
		ten.inflight--
		r.mu.Unlock()
		return 0, err
	}
	return gid, nil
}

// submitTo hands a routed spec to its shard and records the local-ID
// mapping, delivering any result that raced ahead of the bookkeeping.
func (r *Router) submitTo(gid, s int, spec *taskspec.Spec) error {
	local, err := r.shards[s].Submit(spec)
	if err != nil {
		return err
	}
	r.recordLocal(gid, s, local)
	return nil
}

// recordLocal binds a shard-local task ID to its global ID and flushes a
// parked early result, if the shard answered before we got here.
func (r *Router) recordLocal(gid, s, local int) {
	r.mu.Lock()
	rt := r.rts[gid]
	rt.shard, rt.local = s, local
	r.rts[gid] = rt
	r.gids[s][local] = gid
	early := r.orphans[orphanKey{s, local}]
	delete(r.orphans, orphanKey{s, local})
	r.mu.Unlock()
	r.vm.ShardSubmissions.With(shardLabel(s)).Inc()
	if early != nil {
		early.TaskID = gid
		r.finish(gid, s, early)
	}
}

func (r *Router) tenantLocked(name string) *tenantState {
	ten := r.tenants[name]
	if ten == nil {
		ten = &tenantState{}
		r.tenants[name] = ten
	}
	return ten
}

// Invoke routes a serverless function call to a shard round-robin and
// returns its global task ID. Invocations carry no workflow affinity
// (their arguments travel inline) and skip the tenant hold queue to keep
// the fast path fast.
func (r *Router) Invoke(library, function string, args []byte) (int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, fmt.Errorf("shard: router is shutting down")
	}
	s := r.rr % len(r.shards)
	r.rr++
	r.next++
	gid := r.next
	r.rts[gid] = route{shard: s, local: -1}
	r.outstanding++
	r.mu.Unlock()

	local, err := r.shards[s].Invoke(library, function, args)
	if err != nil {
		r.dropRoute(gid)
		return 0, err
	}
	r.recordLocal(gid, s, local)
	return gid, nil
}

// InvokeResident routes a resident function call; the returned handle is
// bound to the executing shard so chained calls and fetches follow it.
func (r *Router) InvokeResident(library, function string, args []byte) (int, string, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, "", fmt.Errorf("shard: router is shutting down")
	}
	s := r.rr % len(r.shards)
	r.rr++
	r.next++
	gid := r.next
	r.rts[gid] = route{shard: s, local: -1}
	r.outstanding++
	r.mu.Unlock()

	local, hid, err := r.shards[s].InvokeResident(library, function, args)
	if err != nil {
		r.dropRoute(gid)
		return 0, "", err
	}
	r.mu.Lock()
	r.aff.bind(hid, s)
	r.mu.Unlock()
	r.recordLocal(gid, s, local)
	return gid, hid, nil
}

// InvokeChained routes a chained resident call to the shard holding the
// argument handle, binding the new handle to the same component.
func (r *Router) InvokeChained(library, function, handleID string) (int, string, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, "", fmt.Errorf("shard: router is shutting down")
	}
	s, ok := r.aff.shardOf(handleID)
	if !ok {
		// An adopted or externally declared handle: pin its component now.
		s = r.ringLocked().lookup(handleID)
		r.aff.bind(handleID, s)
	}
	r.next++
	gid := r.next
	r.rts[gid] = route{shard: s, local: -1}
	r.outstanding++
	r.mu.Unlock()

	local, hid, err := r.shards[s].InvokeChained(library, function, handleID)
	if err != nil {
		r.dropRoute(gid)
		return 0, "", err
	}
	r.mu.Lock()
	if err := r.aff.union(handleID, hid); err != nil {
		// Cannot happen: hid is fresh and unbound.
		r.logf("handle union: %v", err)
	}
	r.mu.Unlock()
	r.recordLocal(gid, s, local)
	return gid, hid, nil
}

// dropRoute abandons a route whose shard submission failed.
func (r *Router) dropRoute(gid int) {
	r.mu.Lock()
	rt, ok := r.rts[gid]
	if ok {
		delete(r.rts, gid)
		r.outstanding--
		if rt.counted {
			if ten := r.tenants[rt.tenant]; ten != nil {
				ten.inflight--
			}
		}
	}
	r.mu.Unlock()
}

// Cancel aborts a task by global ID. Held tasks finish immediately with a
// cancellation result; submitted tasks are cancelled at their shard.
func (r *Router) Cancel(gid int) error {
	r.mu.Lock()
	rt, ok := r.rts[gid]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("core: no cancellable task %d", gid)
	}
	if rt.local < 0 {
		ten := r.tenants[rt.tenant]
		if ten != nil {
			for i, h := range ten.held {
				if h.gid == gid {
					ten.held = append(ten.held[:i], ten.held[i+1:]...)
					r.mu.Unlock()
					r.finish(gid, rt.shard, &core.Result{
						TaskID: gid, OK: false, ExitCode: -1, Error: "cancelled",
					})
					return nil
				}
			}
		}
		r.mu.Unlock()
		return fmt.Errorf("shard: task %d is mid-submission; retry", gid)
	}
	s, local := rt.shard, rt.local
	r.mu.Unlock()
	return r.shards[s].Cancel(local)
}

// Empty reports whether every globally submitted task has completed,
// including tasks still held by tenant quotas.
func (r *Router) Empty() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.outstanding == 0
}

// Wait returns the next completed task result with its global ID.
func (r *Router) Wait(ctx context.Context) (*core.Result, error) {
	select {
	case res := <-r.results:
		return res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// pump drains one shard's results, remaps their IDs, and feeds the
// router's delivery queue. It is latency-critical in the same way the
// manager event loop is — a blocked pump delays quota release for every
// tenant on its shard — so it is checked by the eventblock analyzer.
func (r *Router) pump(i int) {
	defer r.bg.Done()
	for {
		res, err := r.shards[i].Wait(r.pumpCtx)
		if err != nil {
			return // router shutting down
		}
		r.mu.Lock()
		gid, ok := r.gids[i][res.TaskID]
		if !ok {
			// The shard answered before Submit's bookkeeping finished;
			// park the result for recordLocal to flush.
			r.orphans[orphanKey{i, res.TaskID}] = res
			r.mu.Unlock()
			continue
		}
		r.mu.Unlock()
		res.TaskID = gid
		r.finish(gid, i, res)
	}
}

// finish retires a global task: drops its route, releases its tenant's
// quota slot (possibly submitting held tasks), and queues the result for
// Wait.
func (r *Router) finish(gid, shardIdx int, res *core.Result) {
	var toSubmit []held
	r.mu.Lock()
	rt, ok := r.rts[gid]
	if !ok {
		r.mu.Unlock()
		return
	}
	delete(r.rts, gid)
	if rt.local >= 0 {
		delete(r.gids[rt.shard], rt.local)
	}
	r.outstanding--
	if ten := r.tenants[rt.tenant]; ten != nil {
		if rt.counted {
			ten.inflight--
		}
		for r.cfg.TenantQuota > 0 && ten.inflight < r.cfg.TenantQuota && len(ten.held) > 0 {
			h := ten.held[0]
			ten.held = ten.held[1:]
			ten.inflight++
			hrt := r.rts[h.gid]
			hrt.counted = true
			r.rts[h.gid] = hrt
			toSubmit = append(toSubmit, h)
		}
		if ten.inflight == 0 && len(ten.held) == 0 {
			delete(r.tenants, rt.tenant)
		}
	}
	r.mu.Unlock()
	r.vm.ShardDispatches.With(shardLabel(shardIdx)).Inc()
	r.queueResult(res)
	for _, h := range toSubmit {
		if err := r.submitTo(h.gid, h.shard, h.spec); err != nil {
			r.finish(h.gid, h.shard, &core.Result{
				TaskID: h.gid, OK: false, ExitCode: -1, Error: "shard: " + err.Error(),
			})
		}
	}
}

// queueResult appends to the unbounded delivery queue and wakes the
// deliverer without ever blocking.
func (r *Router) queueResult(res *core.Result) {
	r.resMu.Lock()
	r.resQ = append(r.resQ, res)
	r.resMu.Unlock()
	select {
	case r.resSig <- struct{}{}:
	default:
	}
}

// deliverLoop moves queued results into the buffered channel Wait reads,
// flushing what fits at shutdown (mirrors core.Manager.deliverLoop).
func (r *Router) deliverLoop() {
	defer r.bg.Done()
	for {
		r.resMu.Lock()
		var res *core.Result
		if len(r.resQ) > 0 {
			res = r.resQ[0]
			r.resQ = r.resQ[1:]
		}
		r.resMu.Unlock()
		if res == nil {
			select {
			case <-r.resSig:
				continue
			case <-r.done:
				r.flushResults()
				return
			}
		}
		select {
		case r.results <- res:
		case <-r.done:
			r.resMu.Lock()
			r.resQ = append([]*core.Result{res}, r.resQ...)
			r.resMu.Unlock()
			r.flushResults()
			return
		}
	}
}

func (r *Router) flushResults() {
	r.resMu.Lock()
	defer r.resMu.Unlock()
	for len(r.resQ) > 0 {
		select {
		case r.results <- r.resQ[0]:
			r.resQ = r.resQ[1:]
		default:
			return
		}
	}
}

// FetchFile retrieves a file's content from whichever shard's cluster
// holds it: the bound shard when the file has workflow affinity,
// otherwise each shard in turn.
func (r *Router) FetchFile(ctx context.Context, fileID string) ([]byte, error) {
	if f, ok := r.reg.Lookup(fileID); ok && f.Type == files.Buffer {
		return append([]byte(nil), f.Content...), nil
	}
	r.mu.Lock()
	s, bound := r.aff.shardOf(fileID)
	r.mu.Unlock()
	if bound {
		return r.shards[s].FetchFile(ctx, fileID)
	}
	var lastErr error
	for _, sh := range r.shards {
		data, err := sh.FetchFile(ctx, fileID)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// InstallLibrary deploys the library on every shard, so invocations can
// route anywhere.
func (r *Router) InstallLibrary(name string, res resources.R) {
	for _, sh := range r.shards {
		sh.InstallLibrary(name, res)
	}
}

// ReplicateFile sets a replication goal at the shard bound to the file,
// or at every shard when the file has no affinity.
func (r *Router) ReplicateFile(fileID string, n int) error {
	if _, ok := r.reg.Lookup(fileID); !ok {
		return fmt.Errorf("core: unknown file %s", fileID)
	}
	r.mu.Lock()
	s, bound := r.aff.shardOf(fileID)
	r.mu.Unlock()
	if bound {
		return r.shards[s].ReplicateFile(fileID, n)
	}
	for _, sh := range r.shards {
		if err := sh.ReplicateFile(fileID, n); err != nil {
			return err
		}
	}
	return nil
}

// EndWorkflow concludes the workflow on every shard and forgets all
// workflow-affinity bindings, so the next workflow redistributes freely.
func (r *Router) EndWorkflow() {
	for _, sh := range r.shards {
		sh.EndWorkflow()
	}
	r.mu.Lock()
	r.aff.reset()
	r.mu.Unlock()
}

// Categories merges per-category statistics across shards.
func (r *Router) Categories() []core.CategoryStats {
	merged := make(map[string]*core.CategoryStats)
	var order []string
	for _, sh := range r.shards {
		for _, c := range sh.Categories() {
			m := merged[c.Category]
			if m == nil {
				cc := c
				merged[c.Category] = &cc
				order = append(order, c.Category)
				continue
			}
			m.Done += c.Done
			m.Failed += c.Failed
			if c.MaxDisk > m.MaxDisk {
				m.MaxDisk = c.MaxDisk
			}
			if c.MaxMemory > m.MaxMemory {
				m.MaxMemory = c.MaxMemory
			}
			m.TotalRunMS += c.TotalRunMS
			m.TotalStagedMS += c.TotalStagedMS
		}
	}
	sort.Strings(order)
	out := make([]core.CategoryStats, 0, len(order))
	for _, name := range order {
		out = append(out, *merged[name])
	}
	return out
}

// Debug merges every shard's scheduling-state dump.
func (r *Router) Debug() core.DebugReport {
	agg := core.DebugReport{Addr: r.Addr()}
	for _, sh := range r.shards {
		d := sh.Debug()
		if d.Now > agg.Now {
			agg.Now = d.Now
		}
		agg.Tasks = append(agg.Tasks, d.Tasks...)
		agg.Replicas = append(agg.Replicas, d.Replicas...)
		agg.Transfers = append(agg.Transfers, d.Transfers...)
		agg.Retries = append(agg.Retries, d.Retries...)
		agg.EventsHandled += d.EventsHandled
		agg.SchedulePasses += d.SchedulePasses
		agg.ArchivedTasks += d.ArchivedTasks
	}
	return agg
}

// Close stops the balancer, advertisers, pumps, and every shard.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	for _, a := range r.advs {
		a.Stop()
	}
	r.pumpStop()
	close(r.done)
	for _, sh := range r.shards {
		sh.Close()
	}
	r.bg.Wait()
	r.flushResults()
}
