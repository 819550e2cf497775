// Package worker implements the TaskVine worker (§2.2, Figure 4): the
// process that manages one node's resources, executes tasks in isolation,
// manages local storage, and performs file transfers asynchronously.
//
// The worker is pure mechanism; every policy decision (placement, transfer
// routing, eviction, garbage collection) arrives as an instruction from the
// manager. The worker reports each state change of interest — an object
// becoming cached, a task completing — through asynchronous messages, so
// the manager maintains a detailed picture of distributed state.
package worker

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"taskvine/internal/cache"
	"taskvine/internal/chaos"
	"taskvine/internal/hashing"
	"taskvine/internal/metrics"
	"taskvine/internal/protocol"
	"taskvine/internal/resources"
	"taskvine/internal/serverless"
	"taskvine/internal/tardir"
)

// Config parameterizes a worker.
type Config struct {
	// ManagerAddr is the manager's host:port.
	ManagerAddr string
	// WorkDir is the worker's private directory; cache/ and sandboxes/
	// live underneath. Created if missing.
	WorkDir string
	// Capacity is the node's resource vector offered to the manager.
	Capacity resources.R
	// CacheCapacity bounds cache disk use in bytes; defaults to
	// Capacity.Disk, or 1 GB if that is also zero.
	CacheCapacity int64
	// MemoryBudget bounds the cache's RAM-backed object tier in bytes.
	// Zero defaults to a quarter of Capacity.Memory; a negative value
	// disables the memory tier entirely (all objects land on disk).
	MemoryBudget int64
	// ID identifies the worker; generated from the hostname and PID when
	// empty.
	ID string
	// Libraries holds the serverless libraries compiled into this worker.
	Libraries *serverless.Registry
	// MaxConcurrentTransfers bounds simultaneous asynchronous fetches.
	MaxConcurrentTransfers int
	// Logger receives operational messages; nil silences them.
	Logger *log.Logger
	// PeerDialTimeout bounds connection establishment to a peer during
	// worker-to-worker transfers; defaults to 5s.
	PeerDialTimeout time.Duration
	// PeerIOTimeout bounds each read or write making progress during a
	// peer transfer, so a wedged peer fails the fetch instead of leaking a
	// goroutine; defaults to 30s. The deadline is refreshed per chunk, so
	// large objects that keep moving are never cut off.
	PeerIOTimeout time.Duration
	// PeerFetchRetries is how many times a failed peer fetch is re-dialed
	// locally, with capped exponential backoff, before the failure is
	// reported to the manager; defaults to 2 (negative disables retries).
	PeerFetchRetries int
	// DisableBinaryProto keeps the manager link on JSON line framing even
	// when the manager offers the binary protocol — useful when debugging
	// the wire with netcat, and for old managers it is simply never
	// offered.
	DisableBinaryProto bool
	// ChunkThreshold is the minimum object size, in bytes, at which a peer
	// fetch with more than one known replica splits into parallel ranged
	// requests; defaults to 4 MB.
	ChunkThreshold int64
	// MaxFetchChunks caps how many parallel ranged requests one chunked
	// fetch issues; defaults to 4.
	MaxFetchChunks int
	// Faults is a test-only fault injector consulted at the worker's
	// instrumented failure points; nil (the default) disables injection.
	Faults *chaos.Injector
	// Metrics is the registry the worker binds the shared instrument set
	// to; nil allocates a private one. Pass the manager's registry to
	// aggregate an in-process cluster onto one /metrics surface.
	Metrics *metrics.Registry
}

// Worker is a running worker process.
type Worker struct {
	cfg   Config
	cache *cache.Cache
	pool  *resources.Pool
	conn  *protocol.Conn
	vm    *metrics.VineMetrics

	peerLn   net.Listener
	peerAddr string

	transferSem chan struct{}

	mu        sync.Mutex
	instances map[string]*serverless.Instance // guarded by mu
	running   map[int]context.CancelFunc      // guarded by mu
	libTasks  map[string]int                  // guarded by mu; library name -> deploying task ID
	// redirect is the manager address a TypeRedirect told this worker to
	// re-register with; consumed by Run between sessions. guarded by mu
	redirect string

	// sandboxSeq disambiguates sandbox directories: distinct executions
	// may share a task ID (identical MiniTask specs), but never a sandbox.
	sandboxSeq atomic.Int64

	// wg tracks per-session helper goroutines (transfers, invocations);
	// it is drained between manager sessions so no helper outlives the
	// connection it writes to. peerWg tracks the peer transfer service,
	// which spans sessions and is drained only when Run returns.
	wg     sync.WaitGroup
	peerWg sync.WaitGroup
	closed chan struct{}
}

// sandboxName returns a unique sandbox directory name for one execution of
// the given task ID. Built with AppendInt rather than Sprintf: one name is
// minted per task execution, on the dispatch path.
func (w *Worker) sandboxName(taskID int) string {
	buf := make([]byte, 0, 24)
	buf = append(buf, "t."...)
	buf = strconv.AppendInt(buf, int64(taskID), 10)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, w.sandboxSeq.Add(1), 10)
	return string(buf)
}

// New prepares a worker but does not connect. The cache directory is
// created (and prior worker-lifetime objects adopted) immediately.
func New(cfg Config) (*Worker, error) {
	if cfg.WorkDir == "" {
		return nil, fmt.Errorf("worker: WorkDir required")
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = cfg.Capacity.Disk
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = resources.GB
	}
	if cfg.MemoryBudget == 0 {
		cfg.MemoryBudget = cfg.Capacity.Memory / 4
	}
	if cfg.MemoryBudget < 0 {
		cfg.MemoryBudget = 0
	}
	if cfg.MaxConcurrentTransfers <= 0 {
		cfg.MaxConcurrentTransfers = 8
	}
	if cfg.PeerDialTimeout <= 0 {
		cfg.PeerDialTimeout = 5 * time.Second
	}
	if cfg.PeerIOTimeout <= 0 {
		cfg.PeerIOTimeout = 30 * time.Second
	}
	if cfg.PeerFetchRetries == 0 {
		cfg.PeerFetchRetries = 2
	}
	if cfg.PeerFetchRetries < 0 {
		cfg.PeerFetchRetries = 0
	}
	if cfg.ChunkThreshold <= 0 {
		cfg.ChunkThreshold = 4 << 20
	}
	if cfg.MaxFetchChunks <= 0 {
		cfg.MaxFetchChunks = 4
	}
	if cfg.Libraries == nil {
		cfg.Libraries = serverless.NewRegistry()
	}
	c, err := cache.New(filepath.Join(cfg.WorkDir, "cache"), cfg.CacheCapacity)
	if err != nil {
		return nil, err
	}
	c.SetMemoryBudget(cfg.MemoryBudget)
	if cfg.Logger != nil {
		logger := cfg.Logger
		c.SetLogger(func(format string, args ...any) { logger.Printf(format, args...) })
	}
	if err := os.MkdirAll(filepath.Join(cfg.WorkDir, "sandboxes"), 0o755); err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	vm := metrics.ForRegistry(cfg.Metrics)
	c.SetMetrics(vm)
	cfg.Faults.SetMetrics(vm.ChaosInjections)
	return &Worker{
		cfg:         cfg,
		cache:       c,
		vm:          vm,
		pool:        resources.NewPool(cfg.Capacity),
		transferSem: make(chan struct{}, cfg.MaxConcurrentTransfers),
		instances:   make(map[string]*serverless.Instance),
		running:     make(map[int]context.CancelFunc),
		libTasks:    make(map[string]int),
		closed:      make(chan struct{}),
	}, nil
}

// ID returns the worker's identity.
func (w *Worker) ID() string { return w.cfg.ID }

// Cache exposes the worker's storage, primarily for tests.
func (w *Worker) Cache() *cache.Cache { return w.cache }

// PeerAddr returns the address of the worker's transfer service, valid
// after Run has started it.
func (w *Worker) PeerAddr() string { return w.peerAddr }

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logger != nil {
		w.cfg.Logger.Printf("worker %s: "+format, append([]any{w.cfg.ID}, args...)...)
	}
}

// errRedirect is the readLoop's signal that the manager leased this worker
// to another shard: Run tears the session down and re-registers there.
var errRedirect = errors.New("worker: redirected to another manager")

// Run connects to the manager and serves until the context is cancelled,
// the manager releases the worker, or the connection drops. A redirect
// message instead re-enters the loop against the new manager address,
// keeping the cache and peer transfer service alive across the move.
func (w *Worker) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("worker: starting transfer service: %w", err)
	}
	w.peerLn = ln
	w.peerAddr = ln.Addr().String()
	w.peerWg.Add(1)
	go w.servePeers()
	runDone := make(chan struct{})
	defer func() {
		// Shutdown order: stop accepting peers, then wait for the accept
		// loop and any in-flight peer serves to drain.
		close(runDone)
		_ = ln.Close() // double-close with the watcher goroutine is benign
		w.peerWg.Wait()
	}()
	go func() {
		select {
		case <-ctx.Done():
		case <-w.closed:
		case <-runDone:
		}
		// Closing unblocks the peer accept loop; its error is the signal.
		_ = ln.Close()
	}()

	addr := w.cfg.ManagerAddr
	for {
		err := w.serveManager(ctx, addr)
		if err == errRedirect {
			w.mu.Lock()
			addr = w.redirect
			w.redirect = ""
			w.mu.Unlock()
			if addr != "" {
				continue
			}
		}
		return err
	}
}

// serveManager runs one registration session against the manager at addr:
// dial, register, re-report adopted cache contents, then serve the read
// loop until release, redirect, cancellation, or connection loss. All
// session-scoped goroutines are drained before it returns so nothing
// writes to a dead connection across a redirect.
func (w *Worker) serveManager(ctx context.Context, addr string) error {
	conn, err := protocol.Dial(addr, 10*time.Second)
	if err != nil {
		return err
	}
	w.conn = conn
	defer conn.Close()

	cap := w.cfg.Capacity
	reg := &protocol.Message{
		Type:         protocol.TypeRegister,
		WorkerID:     w.cfg.ID,
		TransferAddr: w.peerAddr,
		Capacity:     &cap,
	}
	if !w.cfg.DisableBinaryProto {
		// Advertise binary framing. The register itself is always JSON, so
		// an old manager simply ignores the field; a new one answers with a
		// binary-framed ack and both directions switch over.
		reg.Proto = protocol.ProtoBinary
	}
	if err := conn.Send(reg); err != nil {
		return err
	}
	// Report adopted cache contents so the manager's replica table learns
	// about persistent objects from previous workflows (or, after a
	// redirect, from the previous shard).
	for _, e := range w.cache.List() {
		if e.State == cache.StateReady {
			conn.Send(&protocol.Message{
				Type:      protocol.TypeCacheUpdate,
				WorkerID:  w.cfg.ID,
				CacheName: e.Name,
				Size:      e.Size,
				Status:    protocol.StatusOK,
			})
		}
	}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	serveDone := make(chan struct{})
	go func() {
		select {
		case <-sctx.Done():
		case <-w.closed:
		case <-serveDone:
		}
		// Shutdown path: closing unblocks the read loop; its error is the
		// signal, not this one.
		_ = conn.Close()
	}()

	err = w.readLoop(sctx)
	close(serveDone)
	cancel()
	w.stopInstances()
	w.wg.Wait()
	select {
	case <-w.closed:
		return nil // clean release
	default:
	}
	if err == errRedirect {
		return err
	}
	if ctx.Err() != nil {
		return nil
	}
	return err
}

func (w *Worker) readLoop(ctx context.Context) error {
	for {
		m, payload, err := w.conn.Recv()
		if err != nil {
			return err
		}
		switch m.Type {
		case protocol.TypeRegister:
			// The manager's registration ack. Proto confirms the framing
			// both ends will speak from here on; Recv autodetects per frame,
			// so only the send side needs switching.
			if m.Proto >= protocol.ProtoBinary && !w.cfg.DisableBinaryProto {
				w.conn.EnableBinary()
			}
		case protocol.TypeError:
			// The manager rejected one of our frames (for example an
			// oversized control payload). The transfer supervisor owns the
			// recovery; the worker just records what happened.
			w.logf("manager rejected %s: %s", m.CacheName, m.Error)
		case protocol.TypePut:
			w.handlePut(m, payload)
		case protocol.TypeGet:
			// Streaming an object back to the manager is a payload write;
			// run it like any other transfer so the read loop keeps
			// draining control messages (protocol.Conn serializes writers).
			w.async(func() { w.handleGet(m) })
		case protocol.TypeFetchURL:
			w.async(func() { w.handleFetchURL(ctx, m) })
		case protocol.TypeFetchPeer:
			w.async(func() { w.handleFetchPeer(ctx, m) })
		case protocol.TypeMini:
			w.async(func() { w.handleMini(ctx, m) })
		case protocol.TypeTask:
			w.startTask(ctx, m.Spec)
		case protocol.TypeInvoke:
			// Invocations are not transfers; they bypass the transfer
			// semaphore so a queue of fetches never delays a function call.
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				w.handleInvoke(m.Spec)
			}()
		case protocol.TypeKill:
			w.killTask(m.TaskID)
		case protocol.TypeUnlink:
			w.cache.Delete(m.CacheName)
		case protocol.TypeEndWorkflow:
			w.cache.EndWorkflow()
			w.stopInstances()
		case protocol.TypeHeartbeat:
			w.conn.Send(&protocol.Message{Type: protocol.TypeHeartbeat, WorkerID: w.cfg.ID})
		case protocol.TypeRedirect:
			// The manager leased this worker to another shard. Remember the
			// target and unwind the session; Run re-registers there with the
			// cache intact.
			w.mu.Lock()
			w.redirect = m.URL
			w.mu.Unlock()
			return errRedirect
		case protocol.TypeRelease:
			close(w.closed)
			return nil
		default:
			w.logf("ignoring unknown message type %q", m.Type)
		}
	}
}

// async runs fn on its own goroutine, bounded by the transfer semaphore so
// a queue of pending transfers never floods the node (§2.1).
func (w *Worker) async(fn func()) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.transferSem <- struct{}{}
		defer func() { <-w.transferSem }()
		fn()
	}()
}

// reportEvictions tells the manager about objects evicted for space, so
// the File Replica Table stays accurate (§2.2: the worker informs the
// manager of every status change of interest).
func (w *Worker) reportEvictions() {
	if w.conn == nil {
		return
	}
	for _, name := range w.cache.DrainEvicted() {
		w.conn.Send(&protocol.Message{
			Type:      protocol.TypeCacheInvalid,
			WorkerID:  w.cfg.ID,
			CacheName: name,
			Error:     "evicted for space",
		})
	}
}

// cacheUpdate reports an object's arrival (or failure) to the manager,
// echoing the supervising transfer's UUID (§3.3).
func (w *Worker) cacheUpdate(name string, size int64, transferID string, err error) {
	w.reportEvictions()
	m := &protocol.Message{
		Type:       protocol.TypeCacheUpdate,
		WorkerID:   w.cfg.ID,
		CacheName:  name,
		Size:       size,
		TransferID: transferID,
		Status:     protocol.StatusOK,
	}
	if e, ok := w.cache.Lookup(name); ok {
		m.Tier = int(e.Tier)
	}
	if err != nil {
		m.Status = protocol.StatusFailed
		m.Error = err.Error()
	}
	if w.conn != nil {
		w.conn.Send(m)
	}
}

// insertFault consults the injector's cache-insert point, modeling a disk
// filling up at the moment an object lands. Returning a non-nil error makes
// the caller report a failed cache-update exactly as a real ENOSPC would.
func (w *Worker) insertFault(name string) error {
	if w.cfg.Faults.At(chaos.CacheInsert, w.cfg.ID, name).Action != chaos.None {
		return fmt.Errorf("worker: cache insert of %s: no space left on device (injected)", name)
	}
	return nil
}

func (w *Worker) handlePut(m *protocol.Message, payload io.Reader) {
	if err := w.insertFault(m.CacheName); err != nil {
		// The unread payload is drained by the next Recv.
		w.cacheUpdate(m.CacheName, 0, m.TransferID, err)
		return
	}
	var err error
	if m.Dir {
		err = w.putDir(m.CacheName, m.Size, cache.Lifetime(m.Lifetime), payload)
	} else {
		err = w.cache.Put(m.CacheName, m.Size, cache.Lifetime(m.Lifetime), payload)
	}
	size := m.Size
	if e, ok := w.cache.Lookup(m.CacheName); ok {
		size = e.Size
	}
	w.cacheUpdate(m.CacheName, size, m.TransferID, err)
}

// putDir materializes a directory object from a tar payload.
func (w *Worker) putDir(name string, size int64, lt cache.Lifetime, payload io.Reader) error {
	already, err := w.cache.Reserve(name, size, lt)
	if err != nil {
		return err
	}
	if already {
		return fmt.Errorf("worker: %s is already being materialized", name)
	}
	if err := tardir.Unpack(io.LimitReader(payload, size), w.cache.Path(name)); err != nil {
		w.cache.Fail(name, err)
		return err
	}
	return w.cache.Commit(name)
}

// memReader adapts an in-RAM object to the ReadCloser contract while
// keeping Seek available for ranged serving.
type memReader struct {
	*bytes.Reader
}

func (memReader) Close() error { return nil }

// openObject returns a payload reader for a cached object, packing
// directory objects into tar streams, along with the payload's hex MD5 so
// receivers can verify integrity end to end. An unhashable file (raced
// deletion, IO error) yields an empty checksum rather than a failure:
// integrity checking is best-effort, presence is not.
func (w *Worker) openObject(name string) (r io.ReadCloser, size int64, dir bool, sum string, err error) {
	e, ok := w.cache.Lookup(name)
	if !ok || e.State != cache.StateReady {
		return nil, 0, false, "", fmt.Errorf("worker: %s not present", name)
	}
	if !e.Dir {
		// Memory-tier objects are hashed and served straight from RAM; the
		// bytes never touch disk on the serving side.
		if b, ok := w.cache.MemoryBytes(name); ok {
			return memReader{bytes.NewReader(b)}, int64(len(b)), false, string(hashing.HashBytes(b)), nil
		}
		if d, herr := hashing.HashFile(w.cache.Path(name)); herr == nil {
			sum = string(d)
		}
		rc, n, err := w.cache.Open(name)
		return rc, n, false, sum, err
	}
	blob, err := tardir.Pack(w.cache.Path(name))
	if err != nil {
		return nil, 0, true, "", err
	}
	sum = string(hashing.HashBytes(blob))
	return io.NopCloser(bytes.NewReader(blob)), int64(len(blob)), true, sum, nil
}

func (w *Worker) handleGet(m *protocol.Message) {
	r, size, dir, sum, err := w.openObject(m.CacheName)
	if err != nil {
		w.conn.Send(&protocol.Message{Type: protocol.TypeError, CacheName: m.CacheName, Error: err.Error()})
		return
	}
	defer r.Close()
	if err := w.conn.SendPayload(&protocol.Message{
		Type: protocol.TypeData, CacheName: m.CacheName, Size: size, Dir: dir, Checksum: sum,
	}, r); err != nil {
		w.logf("sending %s to manager: %v", m.CacheName, err)
	}
}

func (w *Worker) handleFetchURL(ctx context.Context, m *protocol.Message) {
	if err := w.insertFault(m.CacheName); err != nil {
		w.cacheUpdate(m.CacheName, 0, m.TransferID, err)
		return
	}
	already, err := w.cache.Reserve(m.CacheName, m.Size, cache.Lifetime(m.Lifetime))
	if err != nil || already {
		if err == nil {
			// Another instruction is already materializing the object; the
			// manager's transfer record must still be closed.
			err = fmt.Errorf("worker: %s already being materialized", m.CacheName)
		}
		w.cacheUpdate(m.CacheName, 0, m.TransferID, err)
		return
	}
	size, err := w.downloadURL(ctx, m.URL, m.CacheName)
	if err != nil {
		w.cache.Fail(m.CacheName, err)
		w.cacheUpdate(m.CacheName, 0, m.TransferID, err)
		return
	}
	if err := w.cache.Commit(m.CacheName); err != nil {
		w.cacheUpdate(m.CacheName, 0, m.TransferID, err)
		return
	}
	w.cacheUpdate(m.CacheName, size, m.TransferID, nil)
}

func (w *Worker) downloadURL(ctx context.Context, url, name string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("worker: GET %s: %s", url, resp.Status)
	}
	// Download into a part file and rename only once the body is complete,
	// so an interrupted download never leaves a truncated object at the
	// final cache path for a later workflow to adopt.
	f, err := w.cache.CreatePart()
	if err != nil {
		return 0, err
	}
	partPath := f.Name()
	n, err := protocol.CopyBuffer(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.ContentLength >= 0 && n != resp.ContentLength {
		err = fmt.Errorf("worker: GET %s: got %d of %d bytes", url, n, resp.ContentLength)
	}
	if err != nil {
		os.Remove(partPath)
		return 0, err
	}
	if err := w.cache.Promote(partPath, name); err != nil {
		os.Remove(partPath)
		return 0, err
	}
	return n, nil
}

func (w *Worker) handleFetchPeer(ctx context.Context, m *protocol.Message) {
	if err := w.insertFault(m.CacheName); err != nil {
		w.cacheUpdate(m.CacheName, 0, m.TransferID, err)
		return
	}
	already, err := w.cache.Reserve(m.CacheName, m.Size, cache.Lifetime(m.Lifetime))
	if err != nil || already {
		if err == nil {
			err = fmt.Errorf("worker: %s already being materialized", m.CacheName)
		}
		w.cacheUpdate(m.CacheName, 0, m.TransferID, err)
		return
	}
	size, err := w.fetchFromPeer(ctx, m)
	if err != nil {
		w.cache.Fail(m.CacheName, err)
		w.cacheUpdate(m.CacheName, 0, m.TransferID, err)
		return
	}
	if err := w.cache.Commit(m.CacheName); err != nil {
		w.cacheUpdate(m.CacheName, 0, m.TransferID, err)
		return
	}
	w.cacheUpdate(m.CacheName, size, m.TransferID, nil)
}

// fetchFromPeer pulls an object from a peer's transfer service, retrying
// locally with capped exponential backoff before the failure propagates to
// the manager. Local retries absorb transient faults (connection resets,
// momentary peer restarts) without a round trip through the manager's
// transfer supervisor; only a persistently failing source escalates.
//
// When the manager names additional replicas and the object is large, the
// first attempt fetches disjoint ranges from several sources in parallel;
// any chunked failure falls back to the single-stream retry loop, so the
// fast path never reduces availability.
func (w *Worker) fetchFromPeer(ctx context.Context, m *protocol.Message) (int64, error) {
	addr, name := m.PeerAddr, m.CacheName
	if sources := peerSources(m); len(sources) > 1 && m.Total >= w.cfg.ChunkThreshold {
		n, err := w.fetchChunked(sources, name, m.Total)
		if err == nil {
			return n, nil
		}
		w.logf("chunked fetch of %s failed (%v); falling back to single stream", name, err)
	}
	attempts := w.cfg.PeerFetchRetries + 1
	var err error
	for a := 1; a <= attempts; a++ {
		if a > 1 {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(chaos.Backoff(0, 0, a-1, 0, name)):
			}
			w.vm.PeerFetchRetries.Inc()
			w.logf("retrying peer fetch of %s from %s (attempt %d/%d)", name, addr, a, attempts)
		}
		var n int64
		n, err = w.fetchFromPeerOnce(addr, name)
		if err == nil {
			return n, nil
		}
	}
	return 0, err
}

// peerSources returns the deduplicated transfer addresses named in a fetch
// instruction: the manager's chosen primary first, then the alternates.
func peerSources(m *protocol.Message) []string {
	seen := make(map[string]bool, 1+len(m.PeerAddrs))
	out := make([]string, 0, 1+len(m.PeerAddrs))
	for _, a := range append([]string{m.PeerAddr}, m.PeerAddrs...) {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		out = append(out, a)
	}
	return out
}

// idleReader refreshes the connection's read deadline before every read, so
// the timeout bounds idleness (a wedged or vanished peer) rather than total
// transfer duration — a large object that keeps moving never trips it.
type idleReader struct {
	c       *protocol.Conn
	r       io.Reader
	timeout time.Duration
}

func (ir *idleReader) Read(b []byte) (int, error) {
	ir.c.SetReadDeadline(time.Now().Add(ir.timeout))
	return ir.r.Read(b)
}

// corruptReader flips one bit of the first byte it passes through — the
// injector's model of a payload damaged in flight. Checksum verification
// must catch it.
type corruptReader struct {
	r    io.Reader
	done bool
}

func (cr *corruptReader) Read(b []byte) (int, error) {
	n, err := cr.r.Read(b)
	if n > 0 && !cr.done {
		b[0] ^= 0x01
		cr.done = true
	}
	return n, err
}

// countingReader counts the bytes actually delivered downstream, so a
// caller can verify that a consumer (like a tar unpacker) really saw the
// advertised payload rather than stopping early at an end-of-archive
// marker inside a truncated stream.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(b []byte) (int, error) {
	n, err := cr.r.Read(b)
	cr.n += int64(n)
	return n, err
}

// fetchFromPeerOnce performs one complete fetch attempt. Nothing touches
// the object's final cache path until the payload has been fully received
// and its size and checksum verified: the body lands in a dot-prefixed
// part file (invisible to cache adoption, purged at startup), and only the
// final rename publishes it. A fetch killed mid-transfer therefore never
// leaves a truncated object where a future workflow could adopt it.
func (w *Worker) fetchFromPeerOnce(addr, name string) (int64, error) {
	if f := w.cfg.Faults.At(chaos.PeerDial, w.cfg.ID, name); f.Action != chaos.None {
		return 0, fmt.Errorf("worker: dialing peer %s: %s (injected)", addr, f.Action)
	}
	conn, err := protocol.Dial(addr, w.cfg.PeerDialTimeout)
	if err != nil {
		return 0, fmt.Errorf("worker: dialing peer %s: %w", addr, err)
	}
	defer conn.Close()
	// One deadline covers the request and the response header; the payload
	// then switches to a per-read idle deadline.
	conn.SetDeadline(time.Now().Add(w.cfg.PeerIOTimeout))
	if err := conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: name}); err != nil {
		return 0, err
	}
	m, payload, err := conn.Recv()
	if err != nil {
		return 0, err
	}
	if m.Type != protocol.TypeData {
		return 0, fmt.Errorf("worker: peer %s: %s", addr, m.Error)
	}
	var body io.Reader = &idleReader{c: conn, r: payload, timeout: w.cfg.PeerIOTimeout}
	if f := w.cfg.Faults.At(chaos.PeerRead, w.cfg.ID, name); f.Action == chaos.Corrupt {
		body = &corruptReader{r: body}
	}
	var digest hash.Hash
	if m.Checksum != "" {
		digest = md5.New()
		body = io.TeeReader(body, digest)
	}
	var n int64
	var partPath string
	if m.Dir {
		counted := &countingReader{r: body}
		lim := io.LimitReader(counted, m.Size)
		dir, err := w.cache.PartDir()
		if err != nil {
			return 0, err
		}
		partPath = dir
		if err := tardir.Unpack(lim, dir); err != nil {
			_ = os.RemoveAll(dir) // best-effort cleanup; the fetch error is what matters
			return 0, err
		}
		// Drain any trailing tar padding Unpack left unread so the digest
		// covers the whole payload — and so the consumed-byte count below
		// is meaningful.
		if _, err := io.Copy(io.Discard, lim); err != nil {
			_ = os.RemoveAll(dir) // best-effort cleanup; the fetch error is what matters
			return 0, err
		}
		if counted.n != m.Size {
			// The unpacker can stop at an end-of-archive marker well before
			// the stream does; only the transport-level count proves the
			// peer delivered what it promised.
			_ = os.RemoveAll(dir) // best-effort cleanup; the fetch error is what matters
			return 0, fmt.Errorf("worker: peer sent %d of %d bytes", counted.n, m.Size)
		}
		n = m.Size
	} else {
		part, err := w.cache.CreatePart()
		if err != nil {
			return 0, err
		}
		partPath = part.Name()
		n, err = protocol.CopyBuffer(part, body)
		if cerr := part.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(partPath)
			return 0, err
		}
		if n != m.Size {
			os.Remove(partPath)
			return 0, fmt.Errorf("worker: peer sent %d of %d bytes", n, m.Size)
		}
	}
	if digest != nil {
		if got := hex.EncodeToString(digest.Sum(nil)); got != m.Checksum {
			_ = os.RemoveAll(partPath) // best-effort cleanup; the fetch error is what matters
			return 0, fmt.Errorf("worker: %s from peer %s: checksum mismatch (got %s want %s)", name, addr, got, m.Checksum)
		}
	}
	if err := w.cache.Promote(partPath, name); err != nil {
		_ = os.RemoveAll(partPath) // best-effort cleanup; the fetch error is what matters
		return 0, err
	}
	return n, nil
}

// fetchChunked pulls disjoint ranges of a plain-file object from several
// replicas in parallel, assembling them in one part file that is promoted
// only after every range has verified. Any error — a peer that predates
// ranged serving, a directory object, a checksum mismatch — aborts the
// whole attempt; the caller falls back to the single-stream path.
func (w *Worker) fetchChunked(sources []string, name string, total int64) (int64, error) {
	part, err := w.cache.CreatePart()
	if err != nil {
		return 0, err
	}
	partPath := part.Name()
	nchunks := w.cfg.MaxFetchChunks
	if len(sources) < nchunks {
		nchunks = len(sources)
	}
	chunk := (total + int64(nchunks) - 1) / int64(nchunks)
	type rng struct{ off, len int64 }
	var chunks []rng
	for off := int64(0); off < total; off += chunk {
		l := chunk
		if off+l > total {
			l = total - off
		}
		chunks = append(chunks, rng{off, l})
	}
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for i, c := range chunks {
		wg.Add(1)
		go func(i int, addr string, c rng) {
			defer wg.Done()
			errs[i] = w.fetchRange(addr, name, c.off, c.len, total, part)
		}(i, sources[i%len(sources)], c)
	}
	wg.Wait()
	err = part.Close()
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	if err != nil {
		os.Remove(partPath)
		return 0, err
	}
	if err := w.cache.Promote(partPath, name); err != nil {
		os.Remove(partPath)
		return 0, err
	}
	w.logf("fetched %s (%d bytes) as %d chunks from %d peers", name, total, len(chunks), len(sources))
	return total, nil
}

// fetchRange retrieves one byte range of an object from a peer and writes
// it at its offset in dst. The per-range checksum from the serving peer
// covers exactly the requested window.
func (w *Worker) fetchRange(addr, name string, off, length, total int64, dst io.WriterAt) error {
	if f := w.cfg.Faults.At(chaos.PeerDial, w.cfg.ID, name); f.Action != chaos.None {
		return fmt.Errorf("worker: dialing peer %s: %s (injected)", addr, f.Action)
	}
	conn, err := protocol.Dial(addr, w.cfg.PeerDialTimeout)
	if err != nil {
		return fmt.Errorf("worker: dialing peer %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(w.cfg.PeerIOTimeout))
	if err := conn.Send(&protocol.Message{
		Type: protocol.TypeGet, CacheName: name, Offset: off, Size: length, Total: total,
	}); err != nil {
		return err
	}
	m, payload, err := conn.Recv()
	if err != nil {
		return err
	}
	if m.Type != protocol.TypeData {
		return fmt.Errorf("worker: peer %s: %s", addr, m.Error)
	}
	if m.Offset != off || m.Size != length {
		return fmt.Errorf("worker: peer %s returned range %d+%d, want %d+%d", addr, m.Offset, m.Size, off, length)
	}
	var body io.Reader = &idleReader{c: conn, r: payload, timeout: w.cfg.PeerIOTimeout}
	if f := w.cfg.Faults.At(chaos.PeerRead, w.cfg.ID, name); f.Action == chaos.Corrupt {
		body = &corruptReader{r: body}
	}
	var digest hash.Hash
	if m.Checksum != "" {
		digest = md5.New()
		body = io.TeeReader(body, digest)
	}
	n, err := protocol.CopyBuffer(io.NewOffsetWriter(dst, off), io.LimitReader(body, length))
	if err != nil {
		return err
	}
	if n != length {
		return fmt.Errorf("worker: peer %s sent %d of %d bytes", addr, n, length)
	}
	if digest != nil {
		if got := hex.EncodeToString(digest.Sum(nil)); got != m.Checksum {
			return fmt.Errorf("worker: %s[%d,+%d) from peer %s: checksum mismatch (got %s want %s)", name, off, length, addr, got, m.Checksum)
		}
	}
	return nil
}

// servePeers answers worker-to-worker get requests from the cache. Each
// connection carries a deadline so a stalled requester cannot pin a serving
// goroutine (and its wg slot) past shutdown.
func (w *Worker) servePeers() {
	defer w.peerWg.Done()
	for {
		nc, err := w.peerLn.Accept()
		if err != nil {
			return
		}
		w.peerWg.Add(1)
		go func() {
			defer w.peerWg.Done()
			conn := protocol.NewConn(nc)
			// Close through the Conn, not the socket: it writes the queued
			// answer (an error frame, say) before hanging up.
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(w.cfg.PeerIOTimeout))
			m, _, err := conn.Recv()
			if err != nil || m.Type != protocol.TypeGet {
				return
			}
			switch w.cfg.Faults.At(chaos.PeerServe, w.cfg.ID, m.CacheName).Action {
			case chaos.Fail:
				conn.Send(&protocol.Message{Type: protocol.TypeError, CacheName: m.CacheName, Error: "chaos: injected serve failure"})
				return
			case chaos.Reset, chaos.Hang:
				// Drop the connection without answering: the requester's read
				// deadline, not our goodwill, bounds its wait.
				return
			}
			if m.Total > 0 {
				// A Total on a get marks a ranged request from a chunking
				// fetcher.
				w.serveRange(conn, m)
				return
			}
			r, size, dir, sum, err := w.openObject(m.CacheName)
			if err != nil {
				conn.Send(&protocol.Message{Type: protocol.TypeError, CacheName: m.CacheName, Error: err.Error()})
				return
			}
			defer r.Close()
			// Refresh the deadline for the payload: the header deadline was
			// sized for a request, not a multi-gigabyte object.
			conn.SetDeadline(time.Now().Add(10 * w.cfg.PeerIOTimeout))
			if err := conn.SendPayload(&protocol.Message{Type: protocol.TypeData, CacheName: m.CacheName, Size: size, Dir: dir, Checksum: sum}, r); err != nil {
				w.logf("sending %s to peer %s: %v", m.CacheName, conn.RemoteAddr(), err)
				return
			}
			w.vm.PeerServes.Inc()
			w.vm.PeerServeBytes.Add(size)
		}()
	}
}

// serveRange answers a ranged get for one byte window of a plain-file
// object. Directory objects are refused — their wire form is a packed tar
// whose bytes are not stable across servings — which makes the requester
// fall back to a whole-object stream. The checksum covers exactly the
// served window so each chunk verifies independently.
func (w *Worker) serveRange(conn *protocol.Conn, m *protocol.Message) {
	fail := func(err error) {
		conn.Send(&protocol.Message{Type: protocol.TypeError, CacheName: m.CacheName, Error: err.Error()})
	}
	e, ok := w.cache.Lookup(m.CacheName)
	if !ok || e.State != cache.StateReady {
		fail(fmt.Errorf("worker: %s not present", m.CacheName))
		return
	}
	if e.Dir {
		fail(fmt.Errorf("worker: %s is a directory; ranged gets serve plain files only", m.CacheName))
		return
	}
	rc, size, err := w.cache.Open(m.CacheName)
	if err != nil {
		fail(err)
		return
	}
	defer rc.Close()
	if m.Offset < 0 || m.Size <= 0 || m.Offset+m.Size > size || m.Total != size {
		fail(fmt.Errorf("worker: bad range [%d,+%d) of %s: have %d bytes", m.Offset, m.Size, m.CacheName, size))
		return
	}
	f, ok := rc.(io.ReadSeeker)
	if !ok {
		fail(fmt.Errorf("worker: %s is not seekable", m.CacheName))
		return
	}
	// Hash the window, then rewind and stream it. Two passes over a range
	// beat materializing it in memory.
	if _, err := f.Seek(m.Offset, io.SeekStart); err != nil {
		fail(err)
		return
	}
	digest := md5.New()
	if _, err := protocol.CopyBuffer(digest, io.LimitReader(f, m.Size)); err != nil {
		fail(err)
		return
	}
	sum := hex.EncodeToString(digest.Sum(nil))
	if _, err := f.Seek(m.Offset, io.SeekStart); err != nil {
		fail(err)
		return
	}
	conn.SetDeadline(time.Now().Add(10 * w.cfg.PeerIOTimeout))
	if err := conn.SendPayload(&protocol.Message{
		Type: protocol.TypeData, CacheName: m.CacheName,
		Size: m.Size, Offset: m.Offset, Total: size, Checksum: sum,
	}, io.LimitReader(f, m.Size)); err != nil {
		w.logf("sending %s[%d,+%d) to peer %s: %v", m.CacheName, m.Offset, m.Size, conn.RemoteAddr(), err)
		return
	}
	w.vm.PeerServes.Inc()
	w.vm.PeerServeBytes.Add(m.Size)
}

// crash abruptly severs the worker's manager connection and peer listener,
// simulating a node loss. Run's read loop unwinds with an error, which a
// supervising batch runner counts as a failure and restarts.
func (w *Worker) crash() {
	w.logf("chaos: injected crash")
	// A crashing node does not report close errors to anyone.
	if w.conn != nil {
		_ = w.conn.Close()
	}
	if w.peerLn != nil {
		_ = w.peerLn.Close()
	}
}
