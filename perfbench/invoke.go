package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"taskvine"
	"taskvine/internal/protocol"
	"taskvine/internal/taskspec"
)

const (
	libName = "perfbench"
	// xformKey is the byte the closed-loop function XORs into its output.
	xformKey = 0xA5
	// chainSteps is the number of calls in one open-loop chain.
	chainSteps = 3
	// ringSize bounds the closed loop's issue-time bookkeeping; a slot is
	// reused only after ringSize later calls were issued.
	ringSize = 1 << 16
)

// benchLibrary is the serverless library the invoke workloads call.
func benchLibrary() *taskvine.Library {
	return &taskvine.Library{
		Name: libName,
		Functions: map[string]taskvine.Function{
			"xform": func(args []byte) ([]byte, error) { return applyXform(args, xformKey), nil },
			"step":  func(args []byte) ([]byte, error) { return applySteps(args, 1), nil },
		},
	}
}

// applyXform reverses in and XORs every byte with key.
func applyXform(in []byte, key byte) []byte {
	out := make([]byte, len(in))
	for i, b := range in {
		out[len(in)-1-i] = b ^ key
	}
	return out
}

// applySteps applies the chain function n times: each step rotates the
// bytes left by one and adds one to each.
func applySteps(in []byte, n int) []byte {
	out := make([]byte, len(in))
	for i := range out {
		out[i] = in[(i+n)%len(in)] + byte(n)
	}
	return out
}

// callArgs generates the arguments of call seq: its sequence number, then
// pseudo-random bytes derived from the seed.
func callArgs(seed int64, seq uint64, n int) []byte {
	out := make([]byte, n)
	binary.LittleEndian.PutUint64(out, seq)
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ seq*0xBF58476D1CE4E5B9
	for i := 8; i < n; i += 8 {
		// splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], z)
		copy(out[i:], b[:])
	}
	return out
}

// checkXform verifies a closed-loop result against the expected transform
// of the arguments it encodes, returning the call's sequence number.
func checkXform(out []byte, seed int64, n int, key byte) (uint64, bool) {
	if len(out) != n {
		return 0, false
	}
	var sb [8]byte
	for i := range sb {
		sb[i] = out[n-1-i] ^ key
	}
	seq := binary.LittleEndian.Uint64(sb[:])
	return seq, bytes.Equal(out, applyXform(callArgs(seed, seq, n), key))
}

// setupInvoke starts a manager and one library worker, and waits until the
// library instance is ready. It returns the set-up time and the time from
// InstallLibrary to the instance being ready.
func setupInvoke(dir string) (*rig, time.Duration, time.Duration, error) {
	t0 := time.Now()
	// The worker's memory tier defaults to a quarter of its memory, which
	// keeps every resident chain result in RAM for a whole segment.
	capacity := taskvine.Resources{Cores: 2, Memory: 4 * taskvine.GB, Disk: taskvine.GB}
	r, err := startRig(dir, 1, capacity, []*taskvine.Library{benchLibrary()})
	if err != nil {
		return nil, 0, 0, err
	}
	tl := time.Now()
	r.m.InstallLibrary(libName, taskvine.Resources{Cores: 1})
	if err := waitFor(func() bool { return r.vm.LibrariesReady.Value() >= 1 }, 30*time.Second); err != nil {
		r.close()
		return nil, 0, 0, fmt.Errorf("waiting for the library instance: %w", err)
	}
	now := time.Now()
	return r, now.Sub(t0), now.Sub(tl), nil
}

// drainer collects results until the issuer has stopped and every issued
// call has answered. Results are handed to onResult with their arrival time.
type drainer struct {
	issued     atomic.Int64
	issuerDone atomic.Bool
	waitCtx    context.Context
	stopWait   context.CancelFunc
}

func newDrainer() *drainer {
	d := &drainer{}
	d.waitCtx, d.stopWait = context.WithCancel(context.Background())
	return d
}

// issuerFinished marks the issued count final and wakes a blocked Wait.
func (d *drainer) issuerFinished() {
	d.issuerDone.Store(true)
	d.stopWait()
}

// drain runs on the caller's goroutine and returns the number of results.
func (d *drainer) drain(m *taskvine.Manager, onResult func(*taskvine.Result, time.Time)) (int64, error) {
	tail, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var received int64
	for {
		done := d.issuerDone.Load()
		if done && received == d.issued.Load() {
			return received, nil
		}
		ctx := d.waitCtx
		if done {
			ctx = tail
		}
		res, err := m.Wait(ctx)
		if err != nil {
			if ctx == d.waitCtx && errors.Is(err, context.Canceled) {
				continue
			}
			return received, fmt.Errorf("waiting for results (%d of %d in): %w", received, d.issued.Load(), err)
		}
		received++
		onResult(res, time.Now())
	}
}

// segmentLen is the measured window on one fresh invoke cluster. The
// manager keeps every finished task and trace event, so its memory grows
// with the calls it serves; a fresh cluster per segment bounds that and
// gives one more set-up sample.
const segmentLen = 2 * time.Second

// loopStats is what one measured invoke window observed.
type loopStats struct {
	calls   int64 // calls answered successfully
	lat     []float64
	late    []float64 // open loop only: how late each arrival was issued
	elapsed time.Duration
	cpu     time.Duration
}

// invokeLoop warms a ready cluster up for warm, then measures dur.
type invokeLoop func(r *rig, warm, dur time.Duration, rec *recorder, out *outcome) (*loopStats, error)

// runInvoke sets the invoke cluster up SetupReps times to time set-up
// alone, then measures dur in segments, each on a freshly set-up cluster.
// Per-layer counts come from the last segment's cluster.
func runInvoke(cfg *config, dur time.Duration, traced bool, loop invokeLoop) (*outcome, *loopStats, error) {
	out := newOutcome()
	nseg := max(1, int(math.Round(float64(dur)/float64(segmentLen))))
	seg := dur / time.Duration(nseg)
	warm := time.Duration(float64(seg) * cfg.sizes.WarmupFrac)
	var probe *runtimeProbe
	if traced {
		probe = startRuntimeProbe()
	}
	var setups, perSec, p50, p90 []float64
	total := &loopStats{}
	runs := cfg.sizes.SetupReps + nseg
	for i := 0; i < runs; i++ {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("invoke-%t-%d", traced, i))
		r, setup, lib, err := setupInvoke(dir)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setup.Seconds())
		var st *loopStats
		rec := newRecorder(traced)
		if i >= cfg.sizes.SetupReps {
			st, err = loop(r, warm, seg, rec, out)
		}
		if err == nil && st != nil && traced && i == runs-1 {
			clusterLayers(r, rec, out.layer)
			out.layer["serverless.library_ready_ms"] = ms(lib)
		}
		r.close()
		removeAll(dir)
		if err != nil {
			return nil, nil, err
		}
		if st == nil {
			continue
		}
		perSec = append(perSec, float64(st.calls)/st.elapsed.Seconds())
		p50 = append(p50, quantile(st.lat, 0.5))
		p90 = append(p90, quantile(st.lat, 0.9))
		total.calls += st.calls
		total.lat = append(total.lat, st.lat...)
		total.late = append(total.late, st.late...)
		total.elapsed += st.elapsed
		total.cpu += st.cpu
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["tasks_per_s"] = median(perSec)
	out.e2e["makespan_s"] = total.elapsed.Seconds()
	if total.calls > 0 {
		out.e2e["cpu_ms_per_task"] = ms(total.cpu) / float64(total.calls)
	}
	// Like throughput, the latency quantiles are medians over segments, so
	// one segment hit by a stall on the machine does not set them.
	out.e2e["latency_p50_ms"] = median(p50)
	out.e2e["latency_p90_ms"] = median(p90)
	if traced {
		probe.finish(out.layer, total.calls)
		tails(out.layer, total.lat)
		out.layer["serverless.calls"] = float64(total.calls)
		out.layer["protocol.rt_us"] = protocolRT(cfg.sizes.RTRounds)
	}
	return out, total, nil
}

// runInvokeClosed keeps a fixed window of plain Invoke calls outstanding
// against one worker's library instance: one goroutine issues, another
// drains results.
func runInvokeClosed(cfg *config, dur time.Duration, traced bool) (*outcome, error) {
	out, _, err := runInvoke(cfg, dur, traced, func(r *rig, warm, dur time.Duration, rec *recorder, out *outcome) (*loopStats, error) {
		var seq uint64
		if _, err := closedLoop(cfg, r, warm, &seq, newRecorder(false), out); err != nil {
			return nil, err
		}
		return closedLoop(cfg, r, dur, &seq, rec, out)
	})
	return out, err
}

// closedLoop runs the window for dur, continuing the sequence at *seq.
func closedLoop(cfg *config, r *rig, dur time.Duration, seq *uint64, rec *recorder, out *outcome) (*loopStats, error) {
	type slot struct {
		seq uint64
		at  time.Time
	}
	ring := make([]slot, ringSize)
	key := byte(xformKey)
	if cfg.corrupt {
		key ^= 1
	}
	n := cfg.sizes.ArgBytes
	sem := make(chan struct{}, cfg.sizes.Window)
	quit := make(chan struct{})
	d := newDrainer()
	var issueFailures atomic.Int64
	var wg sync.WaitGroup

	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer d.issuerFinished()
		for s := *seq; ; s++ {
			select {
			case sem <- struct{}{}:
			case <-quit:
				*seq = s
				return
			}
			now := time.Now()
			if now.After(deadline) {
				*seq = s
				return
			}
			args := callArgs(cfg.seed, s, n)
			ring[s%ringSize] = slot{seq: s, at: now}
			t0 := rec.begin()
			id, err := r.m.Invoke(libName, "xform", args)
			if err != nil {
				issueFailures.Add(1)
				<-sem
				continue
			}
			rec.call(t0, id)
			d.issued.Add(1)
		}
	}()

	st := &loopStats{}
	var last time.Time
	received, err := d.drain(r.m, func(res *taskvine.Result, at time.Time) {
		<-sem
		last = at
		if !res.OK {
			out.fail("call %d failed: %s", res.TaskID, res.Error)
			return
		}
		s, ok := checkXform(res.Output, cfg.seed, n, key)
		if !ok {
			out.fail("call %d returned %x, not the expected transform", res.TaskID, res.Output)
			return
		}
		sl := ring[s%ringSize]
		if sl.seq != s {
			out.fail("call %d: issue record for sequence %d was overwritten", res.TaskID, s)
			return
		}
		st.calls++
		st.lat = append(st.lat, ms(at.Sub(sl.at)))
	})
	close(quit)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	st.elapsed = last.Sub(start)
	st.cpu = cpuTime() - cpu0
	out.attempted += received + issueFailures.Load()
	for i := int64(0); i < issueFailures.Load(); i++ {
		out.fail("Invoke returned an error")
	}
	return st, nil
}

// runChainOpen issues chains on a seeded Poisson schedule: each arrival
// calls InvokeResident and then InvokeChained twice on the returned
// handles. Latency runs from the arrival's due time to the third result.
func runChainOpen(cfg *config, dur time.Duration, traced bool) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var next uint64
	out, total, err := runInvoke(cfg, dur, traced, func(r *rig, warm, dur time.Duration, rec *recorder, out *outcome) (*loopStats, error) {
		if _, err := openLoop(cfg, r, schedule(rng, cfg.sizes.ChainRate, warm), &next, newRecorder(false), out, rng); err != nil {
			return nil, err
		}
		return openLoop(cfg, r, schedule(rng, cfg.sizes.ChainRate, dur), &next, rec, out, rng)
	})
	if err != nil {
		return nil, err
	}
	if traced {
		late := append([]float64(nil), total.late...)
		out.layer["gen.late_p99_ms"] = quantile(late, 0.99)
		out.layer["gen.late_max_ms"] = quantile(late, 1)
		out.layer["gen.samples"] = float64(len(total.lat))
	}
	return out, nil
}

// schedule draws Poisson arrival offsets at rate per second over dur.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// book pairs results with the calls that produced them. A result can
// arrive before its Invoke call has returned the task ID, so unmatched
// results wait in early until the issuer registers the ID.
type book struct {
	mu    sync.Mutex
	byID  map[int]callRef     // guarded by mu
	early map[int]earlyResult // guarded by mu
}

type callRef struct {
	chain int
	stage int
}

type earlyResult struct {
	at  time.Time
	ok  bool
	err string
}

// openLoop issues one chain per scheduled arrival, continuing the chain
// numbering at *next, and samples tails for FetchFile checks afterwards.
func openLoop(cfg *config, r *rig, sched []time.Duration, next *uint64, rec *recorder, out *outcome, rng *rand.Rand) (*loopStats, error) {
	n := len(sched)
	base := *next
	*next += uint64(n)
	lat := make([]float64, n)
	for i := range lat {
		lat[i] = -1
	}
	late := make([]float64, n)
	handles := make([]taskvine.Handle, n)
	bk := &book{byID: map[int]callRef{}, early: map[int]earlyResult{}}
	d := newDrainer()
	var issueFailures atomic.Int64
	var okCalls int64 // guarded by bk.mu
	var start time.Time

	// complete runs under bk.mu for every result matched to its call.
	complete := func(ref callRef, at time.Time, ok bool, errText string) {
		if !ok {
			out.fail("chain %d call %d failed: %s", base+uint64(ref.chain), ref.stage, errText)
			return
		}
		okCalls++
		if ref.stage == chainSteps-1 {
			lat[ref.chain] = ms(at.Sub(start.Add(sched[ref.chain])))
		}
	}
	register := func(id, chain, stage int) {
		ref := callRef{chain: chain, stage: stage}
		bk.mu.Lock()
		if e, ok := bk.early[id]; ok {
			delete(bk.early, id)
			complete(ref, e.at, e.ok, e.err)
		} else {
			bk.byID[id] = ref
		}
		bk.mu.Unlock()
	}

	cpu0 := cpuTime()
	start = time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer d.issuerFinished()
		for i, off := range sched {
			due := start.Add(off)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late[i] = ms(time.Since(due))
			t0 := rec.begin()
			id, h, err := r.m.InvokeResident(libName, "step", callArgs(cfg.seed, base+uint64(i), cfg.sizes.ChainBytes))
			for stage := 0; ; stage++ {
				if err != nil {
					issueFailures.Add(1)
					break
				}
				rec.call(t0, id)
				d.issued.Add(1)
				register(id, i, stage)
				if stage == chainSteps-1 {
					handles[i] = h
					break
				}
				t0 = rec.begin()
				id, h, err = r.m.InvokeChained(libName, "step", h)
			}
		}
	}()

	var last time.Time
	received, err := d.drain(r.m, func(res *taskvine.Result, at time.Time) {
		last = at
		bk.mu.Lock()
		if ref, ok := bk.byID[res.TaskID]; ok {
			delete(bk.byID, res.TaskID)
			complete(ref, at, res.OK, res.Error)
		} else {
			bk.early[res.TaskID] = earlyResult{at: at, ok: res.OK, err: res.Error}
		}
		bk.mu.Unlock()
	})
	wg.Wait()
	if err != nil {
		return nil, err
	}
	st := &loopStats{late: late}
	st.elapsed = last.Sub(start)
	st.cpu = cpuTime() - cpu0
	st.calls = okCalls
	out.attempted += received + issueFailures.Load()
	for i := int64(0); i < issueFailures.Load(); i++ {
		out.fail("Invoke returned an error")
	}
	if len(bk.early) != 0 || len(bk.byID) != 0 {
		out.fail("%d results never matched a call, %d calls never answered", len(bk.early), len(bk.byID))
	}
	for i, l := range lat {
		if l >= 0 {
			st.lat = append(st.lat, l)
		} else if issueFailures.Load() == 0 {
			out.fail("chain %d has no latency sample", base+uint64(i))
		}
	}
	if len(st.lat) != n {
		out.fail("%d latency samples for %d requests", len(st.lat), n)
	}

	// Fetch a seeded sample of chain tails and compare them with the
	// expected composition of the chain function.
	steps := chainSteps
	if cfg.corrupt {
		steps++
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for k := 0; k < cfg.sizes.TailSample && n > 0; k++ {
		i := rng.Intn(n)
		if handles[i] == (taskvine.Handle{}) {
			continue
		}
		out.attempted++
		got, err := r.m.FetchFile(ctx, handles[i].File())
		if err != nil {
			out.fail("fetching chain %d tail: %v", base+uint64(i), err)
			continue
		}
		want := applySteps(callArgs(cfg.seed, base+uint64(i), cfg.sizes.ChainBytes), steps)
		if !bytes.Equal(got, want) {
			out.fail("chain %d tail is %x, want %x", base+uint64(i), got, want)
		}
	}
	return st, nil
}

// protocolRT measures an isolated invoke-and-result round trip through the
// protocol codec over an in-memory pipe, returning the median microseconds
// per round trip over batches of 1000.
func protocolRT(rounds int) float64 {
	a, b := net.Pipe()
	client, server := protocol.NewConn(a), protocol.NewConn(b)
	client.EnableBinary()
	server.EnableBinary()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			m, _, err := server.Recv()
			if err != nil {
				return
			}
			reply := &protocol.Message{Type: protocol.TypeComplete, TaskID: m.TaskID, Status: protocol.StatusOK}
			if m.Spec != nil {
				reply.Result = applyXform(m.Spec.Args, xformKey)
			}
			if err := server.Send(reply); err != nil {
				return
			}
		}
	}()
	spec := &taskspec.Spec{Kind: taskspec.KindFunction, Library: libName, Function: "xform",
		Args: callArgs(1, 0, 32)}
	const batch = 1000
	var per []float64
	for done := 0; done < rounds; done += batch {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := client.Send(&protocol.Message{Type: protocol.TypeInvoke, TaskID: i + 1, Spec: spec}); err != nil {
				break
			}
			if _, _, err := client.Recv(); err != nil {
				break
			}
		}
		per = append(per, float64(time.Since(t0))/float64(time.Microsecond)/batch)
	}
	client.Close()
	server.Close()
	wg.Wait()
	return median(per)
}
