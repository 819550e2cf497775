package worker

// Tests for the streaming transfer path: part-file cache inserts that keep
// unverified bytes off the final cache path, byte-counted directory
// payloads, and error frames that reach the requester before the hang-up.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"taskvine/internal/protocol"
	"taskvine/internal/tardir"
)

// cutSources are the ways an object reaches a worker. start makes the worker
// land name (size bytes advertised, a directory if dir) and delivers only
// sent of it, then stalls until cut closes and hangs up. reports says
// whether the failed cache-update can reach the manager afterwards: a put
// arrives on the manager's own connection, so hanging up ends the session.
type cutSource struct {
	reports bool
	start   func(t *testing.T, f *fakeManager, name string, size int64, dir bool, sent []byte, cut <-chan struct{})
}

var cutSources = map[string]cutSource{
	"peer": {reports: true, start: func(t *testing.T, f *fakeManager, name string, size int64, dir bool, sent []byte, cut <-chan struct{}) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// Every attempt, the first and the worker's local retry, gets the
		// same cut-off payload; once cut closes, each hangs up at once.
		var dials atomic.Int32
		t.Cleanup(func() {
			ln.Close()
			if n := dials.Load(); n != peerRetries+1 {
				t.Errorf("peer %s: served %d fetch attempts, want %d", name, n, peerRetries+1)
			}
		})
		go func() {
			for {
				nc, err := ln.Accept()
				if err != nil {
					return
				}
				dials.Add(1)
				go func() {
					defer nc.Close()
					if _, _, err := protocol.NewConn(nc).Recv(); err != nil {
						return
					}
					writeHeader(t, nc, &protocol.Message{Type: protocol.TypeData, CacheName: name, Size: size, Dir: dir, Payload: true})
					nc.Write(sent)
					<-cut
				}()
			}
		}()
		f.conn.Send(&protocol.Message{
			Type: protocol.TypeFetchPeer, CacheName: name,
			PeerAddr: ln.Addr().String(), Size: size, TransferID: "t-" + name,
		})
	}},
	"put": {start: func(t *testing.T, f *fakeManager, name string, size int64, dir bool, sent []byte, cut <-chan struct{}) {
		writeHeader(t, f.nc, &protocol.Message{
			Type: protocol.TypePut, CacheName: name, Size: size, Dir: dir,
			Lifetime: 1, TransferID: "t-" + name, Payload: true,
		})
		f.nc.Write(sent)
		go func() {
			<-cut
			f.nc.Close()
		}()
	}},
	"url": {reports: true, start: func(t *testing.T, f *fakeManager, name string, size int64, _ bool, sent []byte, cut <-chan struct{}) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			if _, err := http.ReadRequest(bufio.NewReader(nc)); err != nil {
				return
			}
			fmt.Fprintf(nc, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", size)
			nc.Write(sent)
			<-cut
		}()
		f.conn.Send(&protocol.Message{
			Type: protocol.TypeFetchURL, CacheName: name,
			URL: "http://" + ln.Addr().String() + "/" + name, Size: size, TransferID: "t-" + name,
		})
	}},
}

// peerRetries is the local retry count landCut gives the worker: a peer
// fetch is cut off on its first attempt and again on the retry, which
// lands under the same reservation.
const peerRetries = 1

// landCut starts src's delivery of name and cuts it off after sent. While
// the payload stalls, a part must be landing and nothing may exist at the
// object's final cache path: a worker killed then would leave a file
// there, which the next worker on this node adopts as a ready object.
// After the hang-up the worker must report the failure (wantErr names it)
// where it can, remove the part, and still leave the final path empty.
func landCut(t *testing.T, kind, name string, size int64, dir bool, sent []byte, wantErr string) {
	src := cutSources[kind]
	f := startFake(t)
	w := startWorkerCfg(t, f, func(c *Config) { c.PeerFetchRetries = peerRetries })
	final := w.cache.Path(name)
	hasPart := func() bool {
		ents, _ := os.ReadDir(filepath.Dir(final))
		return slices.ContainsFunc(ents, func(e os.DirEntry) bool { return strings.HasPrefix(e.Name(), ".part-") })
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
			if _, err := os.Lstat(final); err == nil {
				t.Fatalf("%s %s: the final cache path exists while waiting for %s", kind, name, what)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s %s: timed out waiting for %s", kind, name, what)
			}
		}
	}
	cut := make(chan struct{})
	src.start(t, f, name, size, dir, sent, cut)
	waitFor("the landing to start", hasPart)
	close(cut)
	if src.reports {
		up, _ := f.recvUntil(t, "failed cache-update", func(m *protocol.Message, _ []byte) bool {
			return m.Type == protocol.TypeCacheUpdate && m.CacheName == name
		})
		if up.Status != protocol.StatusFailed || !strings.Contains(up.Error, wantErr) {
			t.Fatalf("%s %s: cut landing reported %+v, want an error containing %q", kind, name, up, wantErr)
		}
	}
	waitFor("the part to be removed", func() bool { return !hasPart() })
	if _, err := os.Lstat(final); !os.IsNotExist(err) {
		t.Fatalf("%s %s: cut landing left the final cache path (lstat err=%v)", kind, name, err)
	}
}

// TestChaosKilledFetchLeavesNoFinalPathFile cuts every way a worker
// receives an object — peer fetch, manager put of a plain file and of a
// directory, URL download — halfway through its payload and checks the
// cache-insert invariant: nothing, complete or truncated, may exist at the
// object's final cache path until the landing verified end to end.
func TestChaosKilledFetchLeavesNoFinalPathFile(t *testing.T) {
	payload := bytes.Repeat([]byte("k"), 8192)
	src := t.TempDir()
	if err := os.WriteFile(filepath.Join(src, "member"), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	tree, err := tardir.Pack(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		source, name string
		body         []byte
		dir          bool
		wantErr      string
	}{
		{source: "peer", name: "killed-obj", body: payload, wantErr: "cache: killed-obj: got 4096 of 8192 bytes"},
		{source: "put", name: "killed-put", body: payload},
		{source: "put", name: "killed-tree", body: tree, dir: true},
		{source: "url", name: "killed-url", body: payload, wantErr: "unexpected EOF"},
	} {
		t.Run(tc.source+"/"+tc.name, func(t *testing.T) {
			landCut(t, tc.source, tc.name, int64(len(tc.body)), tc.dir, tc.body[:len(tc.body)/2], tc.wantErr)
		})
	}
}

// TestChaosDirShortTarNotCommitted delivers a directory payload whose tar
// stream is complete (the unpacker succeeds) but shorter than the
// advertised size, by peer fetch and by manager put. Only the byte count
// can refuse it: the unpacker stops at the end-of-archive marker before
// the advertised size arrives.
func TestChaosDirShortTarNotCommitted(t *testing.T) {
	src := t.TempDir()
	if err := os.WriteFile(filepath.Join(src, "member"), []byte("short tree"), 0o644); err != nil {
		t.Fatal(err)
	}
	blob, err := tardir.Pack(src)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(blob)) + 512
	for _, source := range []string{"peer", "put"} {
		t.Run(source, func(t *testing.T) {
			landCut(t, source, "short-tree", size, true, blob,
				fmt.Sprintf("cache: short-tree: got %d of %d bytes", len(blob), size))
		})
	}
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
