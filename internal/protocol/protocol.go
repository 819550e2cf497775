// Package protocol implements the TaskVine wire protocol spoken between the
// manager and its workers, and between peer workers during supervised
// worker-to-worker transfers (§2.2, §3.3).
//
// Every message on every link is a binary frame (see binary.go): a fixed
// prologue, a tag/value header carrying the Message fields, and, when the
// prologue's payload flag is set, exactly Size raw bytes of file data.
// There is one framing and nothing to negotiate: a connection speaks
// frames from its first byte, and a receiver rejects any message that does
// not start with the frame magic byte. The manager directs all policy;
// workers respond asynchronously with cache-update and completion
// messages, so the connection is fully bidirectional and unsynchronized.
package protocol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
)

// Message type tags. Direction is noted for documentation; the codec is
// symmetric.
const (
	// TypeRegister (worker→manager) announces a new worker, its transfer
	// address, and its resource capacity.
	TypeRegister = "register"
	// TypeTask (manager→worker) dispatches a task specification.
	TypeTask = "task"
	// TypePut (manager→worker) carries a file payload to store in cache.
	TypePut = "put"
	// TypeGet (either direction) requests a cached object; answered with
	// TypeData or TypeError.
	TypeGet = "get"
	// TypeData answers TypeGet with the object payload.
	TypeData = "data"
	// TypeFetchURL (manager→worker) instructs an asynchronous download
	// from a remote URL into cache.
	TypeFetchURL = "fetch-url"
	// TypeFetchPeer (manager→worker) instructs an asynchronous transfer
	// from another worker's cache into this worker's cache.
	TypeFetchPeer = "fetch-peer"
	// TypeMini (manager→worker) instructs on-demand materialization of a
	// file by executing a MiniTask specification.
	TypeMini = "mini"
	// TypeCacheUpdate (worker→manager) reports that an object has become
	// present (or failed to become present) in the worker's cache.
	TypeCacheUpdate = "cache-update"
	// TypeCacheInvalid (worker→manager) reports that a cached object was
	// lost or evicted.
	TypeCacheInvalid = "cache-invalid"
	// TypeComplete (worker→manager) reports task completion.
	TypeComplete = "complete"
	// TypeUnlink (manager→worker) deletes an object from the cache.
	TypeUnlink = "unlink"
	// TypeKill (manager→worker) aborts a running task.
	TypeKill = "kill"
	// TypeInvoke (manager→worker) routes a FunctionCall to a deployed
	// library instance.
	TypeInvoke = "invoke"
	// TypeHeartbeat keeps the connection alive and reports load.
	TypeHeartbeat = "heartbeat"
	// TypeRelease (manager→worker) asks the worker to shut down cleanly.
	TypeRelease = "release"
	// TypeEndWorkflow (manager→worker) marks the conclusion of a workflow:
	// the worker discards all task- and workflow-lifetime objects.
	TypeEndWorkflow = "end-workflow"
	// TypeError reports a request-level failure.
	TypeError = "error"
)

// Status values for TypeCacheUpdate.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// OutputInfo describes one output object a completed task deposited into
// the worker cache.
type OutputInfo struct {
	CacheName string `json:"cache_name"`
	Size      int64  `json:"size"`
}

// Message is the single wire message shape. Fields are a union across all
// message types; unused fields are omitted from the encoding. A flat union
// keeps the codec trivial. The JSON struct tags are not a wire format: they
// name the fields when a test or a log dumps a message with json.Marshal.
type Message struct {
	Type string `json:"type"`

	// Worker identity and capacity (register, heartbeat).
	WorkerID     string       `json:"worker_id,omitempty"`
	TransferAddr string       `json:"transfer_addr,omitempty"`
	Capacity     *resources.R `json:"capacity,omitempty"`

	// Task dispatch and completion.
	TaskID   int            `json:"task_id,omitempty"`
	Spec     *taskspec.Spec `json:"spec,omitempty"`
	ExitCode int            `json:"exit_code,omitempty"`
	Result   []byte         `json:"result,omitempty"`
	Outputs  []OutputInfo   `json:"outputs,omitempty"`
	// TimeStagedMS and TimeRunMS split the worker-side latency into data
	// staging and execution, the raw material of Figure 9.
	TimeStagedMS int64 `json:"time_staged_ms,omitempty"`
	TimeRunMS    int64 `json:"time_run_ms,omitempty"`
	// MeasuredDisk and MeasuredMemory report observed task consumption in
	// bytes (sandbox residue; peak RSS when memory monitoring ran), the
	// raw material for category-based allocation sizing.
	MeasuredDisk   int64 `json:"measured_disk,omitempty"`
	MeasuredMemory int64 `json:"measured_memory,omitempty"`

	// File movement.
	CacheName string `json:"cache_name,omitempty"`
	Size      int64  `json:"size,omitempty"`
	Payload   bool   `json:"payload,omitempty"`
	// Dir marks a directory-valued object whose payload is a tar stream
	// rather than raw file bytes.
	Dir        bool   `json:"dir,omitempty"`
	Lifetime   int    `json:"lifetime,omitempty"`
	URL        string `json:"url,omitempty"`
	PeerAddr   string `json:"peer_addr,omitempty"`
	TransferID string `json:"transfer_id,omitempty"`
	// Checksum is the hex MD5 digest of the payload accompanying a data
	// message; receivers that find it non-empty verify the payload against
	// it and treat a mismatch as a transfer failure.
	Checksum string `json:"checksum,omitempty"`
	// Status reporting.
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Conn wraps a network connection with the message codec.
//
// Control messages are queued, not written: Send encodes the frame into a
// pending buffer under a short lock and returns, and a writer goroutine —
// at most one per connection, started when the queue turns non-empty and
// gone once it drains — swaps the buffer out and writes everything queued
// in one call. Under load each write carries a burst of frames; when idle
// it carries one. Payload sends and Close are synchronous: they take the
// socket lock, write the queued frames first, and then their own bytes,
// so frames from one goroutine keep their order and a control frame can
// never land inside another message's payload. A failed write is sticky:
// it closes the socket, so the read side sees the peer gone, and every
// later send returns it. Reads must be performed by a single goroutine.
type Conn struct {
	raw net.Conn
	r   *bufio.Reader
	// pending is the unread remainder of the previous message's payload;
	// it must be drained before the next control message can be decoded.
	pending int64

	// wmu is the socket lock, held by whoever writes to raw: the writer
	// goroutine, a payload send, or Close. Lock order is wmu, then qmu.
	wmu sync.Mutex
	w   *bufio.Writer // guarded by wmu; payload sends only
	// qmu guards the queue of encoded frames. It is held to append or swap
	// buffers, never across a write, so senders do not wait on the socket.
	qmu   sync.Mutex
	queue []byte // guarded by qmu
	// spare is the buffer the writer last emptied, reused as the next
	// queue (guarded by qmu).
	spare []byte
	// writing is set while a writer goroutine owns the queue (guarded by
	// qmu).
	writing bool
	// sending holds a copy of the message being encoded (guarded by qmu).
	// The codec reaches fields through table closures, which the compiler
	// cannot see into, so encoding the caller's message itself would move
	// every sent message to the heap.
	sending Message
	// err is the sticky write failure, or errClosed after Close (guarded
	// by qmu).
	err error
	// drained wakes senders parked on a queue at queueHighWater.
	drained sync.Cond
	// writers tracks the writer goroutine so Close can wait for it.
	writers sync.WaitGroup
}

const (
	// queueHighWater bounds the frames a peer that stopped reading can
	// pin in memory: a Send that finds this much queued waits for the
	// writer instead.
	queueHighWater = 4 << 20
	// maxSpare is the largest drained buffer kept for reuse; a buffer
	// grown by a burst of big frames is dropped instead of pinned.
	maxSpare = 1 << 20
	// closeFlushTimeout bounds how long Close writes queued frames to a
	// peer that may have stopped reading.
	closeFlushTimeout = time.Second
)

var errClosed = fmt.Errorf("protocol: send on closed connection: %w", net.ErrClosed)

// NewConn wraps an established network connection.
func NewConn(c net.Conn) *Conn {
	conn := &Conn{
		raw: c,
		r:   bufio.NewReaderSize(c, 1<<16),
		w:   bufio.NewWriterSize(c, 1<<16),
	}
	conn.drained.L = &conn.qmu
	return conn
}

// Close writes any queued frames, giving a peer that stopped reading
// closeFlushTimeout to take them, then closes the connection and waits
// for the writer goroutine to exit. Sends after Close fail.
func (c *Conn) Close() error {
	// The deadline also unblocks a writer stuck on a full socket, which
	// holds wmu.
	_ = c.raw.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
	c.wmu.Lock()
	c.qmu.Lock()
	buf, failed := c.queue, c.err != nil
	c.queue = nil
	if c.err == nil {
		c.err = errClosed
	}
	c.drained.Broadcast()
	c.qmu.Unlock()
	if !failed && len(buf) > 0 {
		// Best effort: the peer is told goodbye if it is still listening.
		_, _ = c.raw.Write(buf)
	}
	err := c.raw.Close()
	c.wmu.Unlock()
	c.writers.Wait()
	return err
}

// RemoteAddr returns the peer address of the underlying connection.
func (c *Conn) RemoteAddr() string { return c.raw.RemoteAddr().String() }

// SetDeadline sets the read/write deadline on the underlying connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline bounds future reads, so a wedged sender fails the
// transfer instead of hanging a goroutine forever. Refresh it before each
// read to express an idle timeout rather than a whole-transfer bound.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline bounds future writes, the mirror-image defense against a
// receiver that stops draining.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// Send queues a control message with no payload and returns without
// waiting for the socket. The message is encoded before Send returns, so
// the caller may reuse it at once. The error is the connection's sticky
// write failure, if an earlier write failed.
func (c *Conn) Send(m *Message) error {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for c.err == nil && len(c.queue) >= queueHighWater {
		c.drained.Wait()
	}
	if c.err != nil {
		return c.err
	}
	c.encodeLocked(m, false)
	if !c.writing {
		c.writing = true
		c.writers.Add(1)
		go c.writeLoop()
	}
	return nil
}

// writeLoop writes queued frames until the queue is empty, swapping the
// buffer out so senders keep appending while a write is in flight.
func (c *Conn) writeLoop() {
	defer c.writers.Done()
	var written []byte
	for {
		c.wmu.Lock()
		c.qmu.Lock()
		c.recycleLocked(written)
		if len(c.queue) == 0 || c.err != nil {
			c.writing = false
			c.qmu.Unlock()
			c.wmu.Unlock()
			return
		}
		buf := c.takeLocked()
		c.qmu.Unlock()
		_, err := c.raw.Write(buf)
		c.wmu.Unlock()
		if err != nil {
			c.fail(err)
			return
		}
		written = buf
	}
}

// takeLocked hands the queued frames to a writer and installs the spare
// buffer as the new queue. Caller holds wmu and qmu.
func (c *Conn) takeLocked() []byte {
	buf := c.queue
	c.queue, c.spare = c.spare, nil
	if len(buf) >= queueHighWater {
		c.drained.Broadcast()
	}
	return buf
}

// recycleLocked keeps a written buffer as the spare. Caller holds qmu.
func (c *Conn) recycleLocked(buf []byte) {
	if buf != nil && cap(buf) <= maxSpare {
		c.spare = buf[:0]
	}
}

// fail records a write failure as the connection's sticky error and
// closes the socket, so the read loop reports the peer gone.
func (c *Conn) fail(err error) {
	c.qmu.Lock()
	if c.err == nil {
		c.err = fmt.Errorf("protocol: write failed: %w", err)
	}
	c.drained.Broadcast()
	c.qmu.Unlock()
	_ = c.raw.Close()
}

// EnableBinary does nothing: every connection sends binary frames from its
// first byte.
//
// Deprecated: binary framing is the only framing; callers can drop the call.
func (c *Conn) EnableBinary() {}

// SendPayload writes a control message followed by exactly m.Size bytes
// read from payload, after every frame queued before it, and returns once
// the bytes are on the socket. A nil payload makes it a Send. The caller's
// message is never mutated: a payload marker is set on a private copy, so
// one Message may be broadcast to many connections concurrently. A failure
// mid-frame leaves the stream unusable, so it is sticky like a failed
// queued write.
func (c *Conn) SendPayload(m *Message, payload io.Reader) error {
	if payload == nil {
		return c.Send(m)
	}
	if !m.Payload {
		mm := *m
		mm.Payload = true
		m = &mm
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.qmu.Lock()
	err := c.err
	var buf []byte
	if err == nil {
		c.encodeLocked(m, true)
		buf = c.takeLocked()
	}
	c.qmu.Unlock()
	if err != nil {
		return err
	}
	_, err = c.w.Write(buf)
	c.qmu.Lock()
	c.recycleLocked(buf)
	c.qmu.Unlock()
	if err == nil {
		var n int64
		n, err = CopyBuffer(c.w, io.LimitReader(payload, m.Size))
		switch {
		case err != nil:
			err = fmt.Errorf("protocol: sending payload of %s: %w", m.CacheName, err)
		case n != m.Size:
			err = fmt.Errorf("protocol: short payload for %s: sent %d of %d bytes", m.CacheName, n, m.Size)
		}
	}
	if err == nil {
		err = c.w.Flush()
	}
	if err != nil {
		c.fail(err)
	}
	return err
}

// encodeLocked appends m's frame to the queue. Caller holds qmu.
func (c *Conn) encodeLocked(m *Message, hasPayload bool) {
	start := len(c.queue)
	var prologue [framePrologueLen]byte
	prologue[0] = frameMagic
	prologue[1] = frameVersion
	if hasPayload {
		prologue[2] = frameFlagPayload
		binary.BigEndian.PutUint64(prologue[7:15], uint64(m.Size))
	}
	c.sending = *m
	c.queue = encodeMessage(append(c.queue, prologue[:]...), &c.sending)
	c.sending = Message{}
	binary.BigEndian.PutUint32(c.queue[start+3:start+7], uint32(len(c.queue)-start-framePrologueLen))
}

// Recv reads the next message. If the message carries a payload, the
// returned reader yields exactly Size bytes and MUST be fully consumed (or
// the connection abandoned) before the next call to Recv; Recv drains any
// unconsumed remainder itself as a safety net. A message that does not
// start with the frame magic byte is an error naming the byte found.
func (c *Conn) Recv() (*Message, io.Reader, error) {
	if c.pending > 0 {
		if _, err := io.CopyN(io.Discard, c.r, c.pending); err != nil {
			return nil, nil, fmt.Errorf("protocol: draining abandoned payload: %w", err)
		}
		c.pending = 0
	}
	var prologue [framePrologueLen]byte
	if _, err := io.ReadFull(c.r, prologue[:1]); err != nil {
		return nil, nil, err
	}
	if prologue[0] != frameMagic {
		return nil, nil, fmt.Errorf("protocol: message starts with byte %#02x %q, not frame magic %#02x",
			prologue[0], prologue[0], frameMagic)
	}
	if _, err := io.ReadFull(c.r, prologue[1:]); err != nil {
		return nil, nil, fmt.Errorf("protocol: reading frame prologue: %w", err)
	}
	if prologue[1] != frameVersion {
		return nil, nil, fmt.Errorf("protocol: unsupported frame version %d", prologue[1])
	}
	hlen := binary.BigEndian.Uint32(prologue[3:7])
	if hlen > maxHeaderBytes {
		return nil, nil, fmt.Errorf("protocol: frame header of %d bytes exceeds limit %d", hlen, maxHeaderBytes)
	}
	hb := getHeaderBuf()
	defer putHeaderBuf(hb)
	h := *hb
	if cap(h) < int(hlen) {
		h = make([]byte, hlen)
	} else {
		h = h[:hlen]
	}
	*hb = h
	if _, err := io.ReadFull(c.r, h); err != nil {
		return nil, nil, fmt.Errorf("protocol: reading frame header: %w", err)
	}
	m, err := decodeMessage(h)
	if err != nil {
		return nil, nil, err
	}
	if prologue[2]&frameFlagPayload == 0 {
		return m, nil, nil
	}
	plen := binary.BigEndian.Uint64(prologue[7:15])
	if plen > 1<<62 {
		return nil, nil, fmt.Errorf("protocol: %s frame with absurd payload size %d", m.Type, plen)
	}
	m.Payload = true
	m.Size = int64(plen)
	c.pending = m.Size
	pr := &payloadReader{c: c, r: io.LimitReader(c.r, m.Size)}
	return m, pr, nil
}

// payloadReader tracks consumption so Recv can drain leftovers.
type payloadReader struct {
	c *Conn
	r io.Reader
}

func (p *payloadReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	p.c.pending -= int64(n)
	return n, err
}

// Dial connects to a TaskVine endpoint.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("protocol: dialing %s: %w", addr, err)
	}
	return NewConn(nc), nil
}
