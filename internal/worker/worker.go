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
	"fmt"
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
	// Logger receives operational messages; nil silences them.
	Logger *log.Logger
	// PeerIOTimeout bounds each read or write making progress during a
	// peer transfer, so a wedged peer fails the fetch instead of leaking a
	// goroutine; defaults to 30s. The deadline is refreshed on every read
	// and every write, so large objects that keep moving are never cut off.
	PeerIOTimeout time.Duration
	// PeerFetchRetries is how many times a failed peer fetch is re-dialed
	// locally, with capped exponential backoff, before the failure is
	// reported to the manager; defaults to 2 (negative disables retries).
	PeerFetchRetries int
	// Faults is a test-only fault injector consulted at the worker's
	// instrumented failure points; nil (the default) disables injection.
	Faults *chaos.Injector
	// Metrics is the registry the worker binds the shared instrument set
	// to; nil allocates a private one. Pass the manager's registry to
	// aggregate an in-process cluster onto one /metrics surface.
	Metrics *metrics.Registry
}

const (
	// maxConcurrentTransfers bounds simultaneous asynchronous fetches.
	maxConcurrentTransfers = 8
	// peerDialTimeout bounds connection establishment to a peer during
	// worker-to-worker transfers.
	peerDialTimeout = 5 * time.Second
)

// Worker is a running worker process.
type Worker struct {
	cfg   Config
	cache *cache.Cache
	pool  *resources.Pool
	conn  *protocol.Conn
	vm    *metrics.VineMetrics
	// session is the manager session's context, set by Run before the read
	// loop starts; tasks killed because it ended report nothing.
	session context.Context

	peerLn   net.Listener
	peerAddr string

	transferSem chan struct{}

	mu        sync.Mutex
	instances map[string]*serverless.Instance // guarded by mu
	running   map[int]context.CancelFunc      // guarded by mu
	libTasks  map[string]int                  // guarded by mu; library name -> deploying task ID

	// sandboxSeq disambiguates sandbox directories: distinct executions
	// may share a task ID (identical MiniTask specs), but never a sandbox.
	sandboxSeq atomic.Int64

	// wg tracks helper goroutines (transfers, invocations); Run drains it
	// before returning so no helper outlives the manager session. peerWg
	// tracks the peer transfer service, drained last.
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
	if cfg.PeerIOTimeout <= 0 {
		cfg.PeerIOTimeout = 30 * time.Second
	}
	if cfg.PeerFetchRetries == 0 {
		cfg.PeerFetchRetries = 2
	}
	if cfg.PeerFetchRetries < 0 {
		cfg.PeerFetchRetries = 0
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
		transferSem: make(chan struct{}, maxConcurrentTransfers),
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

// Run connects to the manager and serves until the context is cancelled,
// the manager releases the worker, or the connection drops.
func (w *Worker) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("worker: starting transfer service: %w", err)
	}
	w.peerLn = ln
	w.peerAddr = ln.Addr().String()
	w.peerWg.Add(1)
	go w.servePeers()
	defer func() {
		// Shutdown order: stop accepting peers, then wait for the accept
		// loop and any in-flight peer serves to drain.
		_ = ln.Close()
		w.peerWg.Wait()
	}()

	conn, err := protocol.Dial(w.cfg.ManagerAddr, 10*time.Second)
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
	if err := conn.Send(reg); err != nil {
		return err
	}
	// Report adopted cache contents so the manager's replica table learns
	// about persistent objects from previous workflows.
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
	w.session = sctx
	go func() {
		select {
		case <-sctx.Done():
		case <-w.closed:
		}
		// Shutdown path: closing unblocks the read loop and the peer
		// accept loop; their errors are the signal, not this one.
		_ = conn.Close()
		_ = ln.Close()
	}()

	err = w.readLoop(sctx)
	cancel()
	w.stopInstances()
	w.wg.Wait()
	select {
	case <-w.closed:
		return nil // clean release
	default:
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

// receive lands one object a transfer delivers, in the sequence every
// source shares: the injected disk-full fault, then Cache.Receive
// around the source's landing, then the cache-update reporting the
// outcome with the committed size. land writes the bytes through
// Cache.Land. A refused object (already present or already being
// materialized) is reported too: the manager's transfer record must
// still be closed.
func (w *Worker) receive(m *protocol.Message, land func() error) {
	var size int64
	err := w.insertFault(m.CacheName)
	if err == nil {
		size, err = w.cache.Receive(m.CacheName, m.Size, cache.Lifetime(m.Lifetime), land)
	}
	w.cacheUpdate(m.CacheName, size, m.TransferID, err)
}

// handlePut lands an object the manager sends with the message. A payload
// left unread by a failure is drained by the next Recv.
func (w *Worker) handlePut(m *protocol.Message, payload io.Reader) {
	w.receive(m, func() error { return w.cache.Land(m.CacheName, m.Size, m.Dir, "", payload) })
}

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
			return io.NopCloser(bytes.NewReader(b)), int64(len(b)), false, string(hashing.HashBytes(b)), nil
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

// handleFetchURL downloads an object, counted against the response's
// Content-Length when the server sends one.
func (w *Worker) handleFetchURL(ctx context.Context, m *protocol.Message) {
	w.receive(m, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("worker: GET %s: %s", m.URL, resp.Status)
		}
		return w.cache.Land(m.CacheName, resp.ContentLength, false, "", resp.Body)
	})
}

// handleFetchPeer pulls an object from a peer's transfer service, retrying
// locally with capped exponential backoff before the failure propagates to
// the manager. Local retries absorb transient faults (connection resets,
// momentary peer restarts) without a round trip through the manager's
// transfer supervisor; only a persistently failing source escalates. Every
// attempt is one stream from the source the manager chose and charged.
func (w *Worker) handleFetchPeer(ctx context.Context, m *protocol.Message) {
	addr, name := m.PeerAddr, m.CacheName
	attempts := w.cfg.PeerFetchRetries + 1
	w.receive(m, func() (err error) {
		for a := 1; a <= attempts; a++ {
			if a > 1 {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(chaos.Backoff(0, 0, a-1, 0, name)):
				}
				w.vm.PeerFetchRetries.Inc()
				w.logf("retrying peer fetch of %s from %s (attempt %d/%d)", name, addr, a, attempts)
			}
			if err = w.fetchFromPeerOnce(addr, name); err == nil {
				return nil
			}
		}
		return err
	})
}

// idleReader refreshes a connection deadline before every read, so the
// timeout bounds idleness (a wedged or vanished peer) rather than total
// transfer duration — a large object that keeps moving never trips it. A
// fetch refreshes its read deadline as it reads the payload off the
// connection; a serve refreshes its write deadline as it reads the next
// piece of the object to write.
type idleReader struct {
	deadline func(time.Time) error
	r        io.Reader
	timeout  time.Duration
}

func (ir *idleReader) Read(b []byte) (int, error) {
	ir.deadline(time.Now().Add(ir.timeout))
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

// fetchFromPeerOnce performs one fetch attempt: it dials the peer, asks
// for the object, and lands the answer's payload, checked against the
// size and checksum the peer's header declares.
func (w *Worker) fetchFromPeerOnce(addr, name string) error {
	if f := w.cfg.Faults.At(chaos.PeerDial, w.cfg.ID, name); f.Action != chaos.None {
		return fmt.Errorf("worker: dialing peer %s: %s (injected)", addr, f.Action)
	}
	conn, err := protocol.Dial(addr, peerDialTimeout)
	if err != nil {
		return fmt.Errorf("worker: dialing peer %s: %w", addr, err)
	}
	defer conn.Close()
	// One deadline covers the request and the response header; the payload
	// then switches to a per-read idle deadline.
	conn.SetDeadline(time.Now().Add(w.cfg.PeerIOTimeout))
	if err := conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: name}); err != nil {
		return err
	}
	m, payload, err := conn.Recv()
	if err != nil {
		return err
	}
	if m.Type != protocol.TypeData {
		return fmt.Errorf("worker: peer %s: %s", addr, m.Error)
	}
	var body io.Reader = &idleReader{deadline: conn.SetReadDeadline, r: payload, timeout: w.cfg.PeerIOTimeout}
	if f := w.cfg.Faults.At(chaos.PeerRead, w.cfg.ID, name); f.Action == chaos.Corrupt {
		body = &corruptReader{r: body}
	}
	return w.cache.Land(name, m.Size, m.Dir, m.Checksum, body)
}

// servePeers answers worker-to-worker get requests from the cache, one
// connection at a time each.
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
			w.servePeer(nc)
		}()
	}
}

// servePeer answers one get request. The connection carries an idle
// deadline so a stalled requester cannot pin a serving goroutine (and its
// wg slot) past shutdown.
func (w *Worker) servePeer(nc net.Conn) {
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
	r, size, dir, sum, err := w.openObject(m.CacheName)
	if err != nil {
		conn.Send(&protocol.Message{Type: protocol.TypeError, CacheName: m.CacheName, Error: err.Error()})
		return
	}
	defer r.Close()
	// The header gets a fresh write deadline, and every piece of the
	// payload another: a requester that keeps reading is never cut off,
	// one that stops is within PeerIOTimeout.
	conn.SetWriteDeadline(time.Now().Add(w.cfg.PeerIOTimeout))
	body := &idleReader{deadline: conn.SetWriteDeadline, r: r, timeout: w.cfg.PeerIOTimeout}
	if err := conn.SendPayload(&protocol.Message{Type: protocol.TypeData, CacheName: m.CacheName, Size: size, Dir: dir, Checksum: sum}, body); err != nil {
		w.logf("sending %s to peer %s: %v", m.CacheName, conn.RemoteAddr(), err)
		return
	}
	w.vm.PeerServes.Inc()
	w.vm.PeerServeBytes.Add(size)
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
