package worker

// Chaos tests for the worker's peer-transfer hardening: wedged peers trip
// idle deadlines instead of hanging forever, mid-stream deaths surface as
// failed cache-updates, injected serve failures and corrupted payloads are
// absorbed by local retries with checksum verification, and a full disk
// reports cleanly.

import (
	"bytes"
	"context"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"taskvine/internal/chaos"
	"taskvine/internal/protocol"
	"taskvine/internal/resources"
)

func chaosSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("VINE_CHAOS_SEED")
	if s == "" {
		return 1
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad VINE_CHAOS_SEED %q: %v", s, err)
	}
	return n
}

// startWorkerCfg is startWorker with a config hook, for tests that tune
// timeouts, retries, and fault injectors.
func startWorkerCfg(t *testing.T, f *fakeManager, mutate func(*Config)) *Worker {
	t.Helper()
	cfg := Config{
		ManagerAddr: f.ln.Addr().String(),
		WorkDir:     t.TempDir(),
		Capacity:    resources.R{Cores: 2, Memory: resources.GB, Disk: 100 * resources.MB},
		ID:          "chaos-worker",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	f.accept(t)
	return w
}

// stage puts an object into a worker's cache through its fake manager.
func stage(t *testing.T, f *fakeManager, name string, data []byte) {
	t.Helper()
	if err := f.conn.SendPayload(&protocol.Message{
		Type: protocol.TypePut, CacheName: name, Size: int64(len(data)), Lifetime: 1,
	}, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	up, _ := f.recvUntil(t, "staged "+name, func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == name
	})
	if up.Status != protocol.StatusOK {
		t.Fatalf("staging %s: %+v", name, up)
	}
}

// TestChaosPeerFetchTimesOutOnWedgedPeer points a fetch at a "peer" that
// sends a few payload bytes and then stalls forever. The per-read idle
// deadline must fail the fetch promptly instead of pinning the transfer
// goroutine for the default 30s (satellite: peer-transfer hangs).
func TestChaosPeerFetchTimesOutOnWedgedPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		c := protocol.NewConn(nc)
		if _, _, err := c.Recv(); err != nil {
			return
		}
		// Promise a megabyte, deliver ten bytes, then wedge.
		writeHeader(nc, &protocol.Message{Type: protocol.TypeData, CacheName: "wedge-obj", Size: 1 << 20, Payload: true})
		nc.Write([]byte("ten bytes!"))
		<-hold
	}()

	f := startFake(t)
	startWorkerCfg(t, f, func(c *Config) {
		c.PeerIOTimeout = 150 * time.Millisecond
		c.PeerFetchRetries = -1 // no local retries: measure a single attempt
	})
	start := time.Now()
	f.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchPeer, CacheName: "wedge-obj",
		PeerAddr: ln.Addr().String(), Size: 1 << 20, TransferID: "t-wedge",
	})
	up, _ := f.recvUntil(t, "failed cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "wedge-obj"
	})
	if up.Status != protocol.StatusFailed {
		t.Fatalf("wedged fetch reported %+v", up)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wedged fetch took %v; idle deadline did not trip", elapsed)
	}
}

// TestChaosPeerDiesMidStream kills the serving side after half the payload:
// the fetch must fail (short read detected), not commit a truncated object.
func TestChaosPeerDiesMidStream(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 4096)
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
			writeHeader(nc, &protocol.Message{Type: protocol.TypeData, CacheName: "cut-obj", Size: int64(len(payload)), Payload: true})
			nc.Write(payload[:len(payload)/2])
			nc.Close() // die mid-stream
		}
	}()

	f := startFake(t)
	startWorkerCfg(t, f, func(c *Config) {
		c.PeerFetchRetries = 1 // retry once; the peer dies the same way again
	})
	f.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchPeer, CacheName: "cut-obj",
		PeerAddr: ln.Addr().String(), Size: int64(len(payload)), TransferID: "t-cut",
	})
	up, _ := f.recvUntil(t, "failed cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "cut-obj"
	})
	if up.Status != protocol.StatusFailed || up.Error == "" {
		t.Fatalf("mid-stream death reported %+v", up)
	}
}

// TestChaosPeerServeFailureRetriedLocally injects one serve-side failure at
// the holder; the fetcher's local retry must succeed without escalating to
// the manager.
func TestChaosPeerServeFailureRetriedLocally(t *testing.T) {
	inj := chaos.New(chaosSeed(t)).Add(chaos.Rule{Point: chaos.PeerServe, Action: chaos.Fail, Count: 1})
	fa := startFake(t)
	wa := startWorkerCfg(t, fa, func(c *Config) {
		c.ID = "holder"
		c.Faults = inj
	})
	fb := startFake(t)
	startWorkerCfg(t, fb, func(c *Config) {
		c.ID = "fetcher"
		c.PeerFetchRetries = 2
	})
	data := []byte("served on the second try")
	stage(t, fa, "flaky-obj", data)

	fb.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchPeer, CacheName: "flaky-obj",
		PeerAddr: wa.PeerAddr(), Size: int64(len(data)), TransferID: "t-flaky",
	})
	up, _ := fb.recvUntil(t, "cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "flaky-obj"
	})
	if up.Status != protocol.StatusOK {
		t.Fatalf("fetch did not survive one injected serve failure: %+v", up)
	}
	if inj.Fired(chaos.PeerServe) != 1 {
		t.Fatalf("serve fault fired %d times, want 1", inj.Fired(chaos.PeerServe))
	}
}

// TestChaosCorruptedPayloadCaughtByChecksum corrupts the first fetched byte
// once: checksum verification must reject the damaged attempt and the clean
// retry must deliver intact content end to end.
func TestChaosCorruptedPayloadCaughtByChecksum(t *testing.T) {
	inj := chaos.New(chaosSeed(t)).Add(chaos.Rule{Point: chaos.PeerRead, Action: chaos.Corrupt, Count: 1})
	fa := startFake(t)
	wa := startWorkerCfg(t, fa, func(c *Config) { c.ID = "holder" })
	fb := startFake(t)
	startWorkerCfg(t, fb, func(c *Config) {
		c.ID = "fetcher"
		c.PeerFetchRetries = 2
		c.Faults = inj
	})
	data := []byte("bytes whose integrity matters")
	stage(t, fa, "fragile-obj", data)

	fb.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchPeer, CacheName: "fragile-obj",
		PeerAddr: wa.PeerAddr(), Size: int64(len(data)), TransferID: "t-fragile",
	})
	up, _ := fb.recvUntil(t, "cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "fragile-obj"
	})
	if up.Status != protocol.StatusOK {
		t.Fatalf("fetch did not survive one corrupted attempt: %+v", up)
	}
	if inj.Fired(chaos.PeerRead) != 1 {
		t.Fatalf("corrupt fault fired %d times, want 1", inj.Fired(chaos.PeerRead))
	}
	// The committed object must be the true bytes, not the corrupted ones.
	fb.conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: "fragile-obj"})
	_, body := fb.recvUntil(t, "data", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeData
	})
	if !bytes.Equal(body, data) {
		t.Fatalf("committed content = %q, want %q", body, data)
	}
}

// TestChaosPersistentCorruptionEscalates: when every attempt corrupts, the
// exhausted retries surface the checksum mismatch to the manager rather
// than committing damaged bytes.
func TestChaosPersistentCorruptionEscalates(t *testing.T) {
	inj := chaos.New(chaosSeed(t)).Add(chaos.Rule{Point: chaos.PeerRead, Action: chaos.Corrupt})
	fa := startFake(t)
	wa := startWorkerCfg(t, fa, func(c *Config) { c.ID = "holder" })
	fb := startFake(t)
	startWorkerCfg(t, fb, func(c *Config) {
		c.ID = "fetcher"
		c.PeerFetchRetries = 1
		c.Faults = inj
	})
	data := []byte("always damaged in flight")
	stage(t, fa, "doomed-obj", data)

	fb.conn.Send(&protocol.Message{
		Type: protocol.TypeFetchPeer, CacheName: "doomed-obj",
		PeerAddr: wa.PeerAddr(), Size: int64(len(data)), TransferID: "t-doomed",
	})
	up, _ := fb.recvUntil(t, "failed cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "doomed-obj"
	})
	if up.Status != protocol.StatusFailed || !strings.Contains(up.Error, "checksum mismatch") {
		t.Fatalf("persistent corruption reported %+v", up)
	}
}

// TestChaosDiskFullOnInsert injects ENOSPC on the first cache insert: the
// put must fail cleanly (and leave the connection usable — the unread
// payload is drained), and the identical retry must succeed.
func TestChaosDiskFullOnInsert(t *testing.T) {
	inj := chaos.New(chaosSeed(t)).Add(chaos.Rule{Point: chaos.CacheInsert, Action: chaos.Fail, Count: 1})
	f := startFake(t)
	startWorkerCfg(t, f, func(c *Config) { c.Faults = inj })
	data := []byte("second landing sticks")

	f.conn.SendPayload(&protocol.Message{
		Type: protocol.TypePut, CacheName: "enospc-obj", Size: int64(len(data)),
		Lifetime: 1, TransferID: "t-full-1",
	}, bytes.NewReader(data))
	up, _ := f.recvUntil(t, "failed cache-update", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeCacheUpdate && m.CacheName == "enospc-obj"
	})
	if up.Status != protocol.StatusFailed || !strings.Contains(up.Error, "no space left") {
		t.Fatalf("disk-full insert reported %+v", up)
	}

	// The retry (as the manager's transfer supervisor would issue) lands.
	stage(t, f, "enospc-obj", data)
	f.conn.Send(&protocol.Message{Type: protocol.TypeGet, CacheName: "enospc-obj"})
	_, body := f.recvUntil(t, "data", func(m *protocol.Message, _ []byte) bool {
		return m.Type == protocol.TypeData
	})
	if !bytes.Equal(body, data) {
		t.Fatalf("content after retry = %q", body)
	}
}
