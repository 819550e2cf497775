package worker

// Tests for the streaming transfer path: part-file cache inserts that keep
// unverified bytes off the final cache path, byte-counted directory
// payloads, and error frames that reach the requester before the hang-up.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"taskvine/internal/protocol"
	"taskvine/internal/tardir"
	"taskvine/internal/taskspec"
)

// miniDirSpec builds a MiniTask that materializes a small directory object.
func miniDirSpec(fileID string) *taskspec.Spec {
	spec := &taskspec.Spec{Kind: taskspec.KindMini, Command: "mkdir -p output && echo deep > output/f"}
	spec.Outputs = []taskspec.Mount{{FileID: fileID, Name: "output"}}
	return spec
}

// assertNoPartLitter fails if any .part- temporary survives in the
// worker's cache directory.
func assertNoPartLitter(t *testing.T, w *Worker) {
	t.Helper()
	dir := filepath.Dir(w.cache.Path("probe"))
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".part-") {
			t.Fatalf("part file %s left in cache dir", e.Name())
		}
	}
}

// TestChaosKilledFetchLeavesNoFinalPathFile kills the serving peer halfway
// through the payload and verifies the fundamental cache-insert invariant:
// nothing — complete or truncated — may exist at the object's final cache
// path unless the transfer verified end to end. A file there would be
// adopted as a worker-lifetime object by the next worker on this node.
func TestChaosKilledFetchLeavesNoFinalPathFile(t *testing.T) {
	payload := bytes.Repeat([]byte("k"), 8192)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			c := protocol.NewConn(nc)
			if _, _, err := c.Recv(); err != nil {
				nc.Close()
				continue
			}
			writeHeader(t, nc, &protocol.Message{Type: protocol.TypeData, CacheName: "killed-obj", Size: int64(len(payload)), Payload: true})
			nc.Write(payload[:len(payload)/2])
			nc.Close() // killed mid-transfer
		}
	}()

	f := startFake(t)
	w := startWorkerCfg(t, f, func(c *Config) {
		c.PeerFetchRetries = 1
	})
	f.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchPeer, CacheName: "killed-obj",
		PeerAddr: ln.Addr().String(), Size: int64(len(payload)), TransferID: "t-killed",
	})
	up, _ := f.recvUntil(t, "failed cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "killed-obj"
	})
	want := fmt.Sprintf("worker: peer sent %d of %d bytes", len(payload)/2, len(payload))
	if up.Status != protocol.StatusFailed || up.Error != want {
		t.Fatalf("killed fetch reported %+v, want error %q", up, want)
	}
	if _, err := os.Stat(w.cache.Path("killed-obj")); !os.IsNotExist(err) {
		t.Fatalf("killed fetch left a file at the final cache path (stat err=%v)", err)
	}
	assertNoPartLitter(t, w)
}

// TestChaosDirShortTarNotCommitted serves a directory payload whose tar
// stream is complete (the unpacker succeeds) but shorter than the
// advertised size. The transport-level byte count must fail the fetch:
// before it was counted, the worker committed whatever the truncated
// stream contained and reported the advertised size as delivered.
func TestChaosDirShortTarNotCommitted(t *testing.T) {
	src := t.TempDir()
	if err := os.WriteFile(filepath.Join(src, "member"), []byte("short tree"), 0o644); err != nil {
		t.Fatal(err)
	}
	blob, err := tardir.Pack(src)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			c := protocol.NewConn(nc)
			if _, _, err := c.Recv(); err != nil {
				nc.Close()
				continue
			}
			// Promise more than the archive holds, then hang up: a valid
			// end-of-archive marker arrives before the advertised size does.
			writeHeader(t, nc, &protocol.Message{
				Type: protocol.TypeData, CacheName: "short-tree",
				Size: int64(len(blob)) + 512, Dir: true, Payload: true,
			})
			nc.Write(blob)
			nc.Close()
		}
	}()

	f := startFake(t)
	w := startWorkerCfg(t, f, func(c *Config) {
		c.PeerFetchRetries = -1
	})
	f.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchPeer, CacheName: "short-tree",
		PeerAddr: ln.Addr().String(), Size: int64(len(blob)) + 512, TransferID: "t-short",
	})
	up, _ := f.recvUntil(t, "failed cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "short-tree"
	})
	if up.Status != protocol.StatusFailed || !strings.Contains(up.Error, "of") {
		t.Fatalf("short dir payload reported %+v", up)
	}
	if _, err := os.Stat(w.cache.Path("short-tree")); !os.IsNotExist(err) {
		t.Fatalf("short dir payload left a tree at the final cache path (stat err=%v)", err)
	}
	assertNoPartLitter(t, w)
}

// TestPeerServeErrorArrivesBeforeEOF: a serving worker's refusal is a
// queued frame, so hanging up must write it before closing the socket.
// Each request gets a fresh connection; every one must read the error
// frame, then a clean EOF.
func TestPeerServeErrorArrivesBeforeEOF(t *testing.T) {
	fa := startFake(t)
	wa := startWorkerCfg(t, fa, func(c *Config) { c.ID = "refusing-holder" })
	for i := 0; i < 50; i++ {
		conn, err := protocol.Dial(wa.PeerAddr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: "absent-obj"}); err != nil {
			t.Fatal(err)
		}
		m, _, err := conn.Recv()
		if err != nil {
			t.Fatalf("request %d: connection ended before the error frame: %v", i, err)
		}
		if m.Type != protocol.TypeError || m.CacheName != "absent-obj" {
			t.Fatalf("request %d: get of an absent object answered %+v", i, m)
		}
		if _, _, err := conn.Recv(); err != io.EOF {
			t.Fatalf("request %d: after the error frame: err=%v, want EOF", i, err)
		}
		conn.Close()
	}
}

// TestPeerServeOutlastsTenIdleTimeouts: the serving side's deadline bounds
// idleness, not the whole payload. A requester that keeps reading, slowly
// enough that the serve takes longer than ten PeerIOTimeouts, still
// receives the whole object intact. The serve runs over an unbuffered
// pipe, so its writes last exactly as long as the reader takes.
func TestPeerServeOutlastsTenIdleTimeouts(t *testing.T) {
	const timeout = 100 * time.Millisecond
	fa := startFake(t)
	wa := startWorkerCfg(t, fa, func(c *Config) { c.PeerIOTimeout = timeout })
	data := make([]byte, 8<<20)
	for i := range data {
		data[i] = byte(i * 7 / 3)
	}
	fa.conn.SendPayload(&protocol.Message{
		Type: protocol.TypePut, CacheName: "slow-obj", Size: int64(len(data)), Lifetime: 1,
	}, bytes.NewReader(data))
	fa.recvUntil(t, "cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "slow-obj"
	})

	ours, theirs := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		wa.servePeer(theirs)
	}()
	conn := protocol.NewConn(ours)
	defer func() {
		conn.Close()
		<-served
	}()
	if err := conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: "slow-obj"}); err != nil {
		t.Fatal(err)
	}
	m, payload, err := conn.Recv()
	if err != nil || m.Type != protocol.TypeData || m.Size != int64(len(data)) {
		t.Fatalf("get answered %+v, %v", m, err)
	}
	// The reader does no work between reads but sleep, so only the serve's
	// deadline can cut it off.
	start := time.Now()
	got := make([]byte, len(data))
	for at := 0; at < len(got); {
		n, err := io.ReadFull(payload, got[at:min(at+64<<10, len(got))])
		at += n
		if err != nil {
			t.Fatalf("payload cut off after %d of %d bytes, %v in: %v", at, len(data), time.Since(start), err)
		}
		time.Sleep(15 * time.Millisecond)
	}
	if took := time.Since(start); took < 10*timeout {
		t.Fatalf("the slow read took %v, not past ten idle timeouts (%v)", took, 10*timeout)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the slowly read object differs from the one served")
	}
}
