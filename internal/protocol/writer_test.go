package protocol

// Tests for the queued write path: Send queues and a writer goroutine
// flushes, Close drains the queue under a deadline, and a failed write is
// sticky.

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// loopback returns a connected pair of TCP sockets.
func loopback(t testing.TB) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- nc
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		t.Fatal("accept failed")
	}
	return a, b
}

func TestCloseDeliversQueuedFrames(t *testing.T) {
	for _, binary := range []bool{false, true} {
		a, b := loopback(t)
		ca, cb := NewConn(a), NewConn(b)
		if binary {
			ca.EnableBinary()
		}
		const n = 500
		for i := 0; i < n; i++ {
			if err := ca.Send(&Message{Type: TypeComplete, TaskID: i + 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ca.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			m, _, err := cb.Recv()
			if err != nil {
				t.Fatalf("binary=%v: frame %d lost: %v", binary, i+1, err)
			}
			if m.TaskID != i+1 {
				t.Fatalf("binary=%v: frame %d arrived as task %d", binary, i+1, m.TaskID)
			}
		}
		if _, _, err := cb.Recv(); err != io.EOF {
			t.Fatalf("after the last frame: err=%v, want EOF", err)
		}
		cb.Close()
		if err := ca.Send(&Message{Type: TypeHeartbeat}); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Send after Close: err=%v, want net.ErrClosed", err)
		}
	}
}

// TestCloseDoesNotWedgeOnStalledPeer queues a frame for a peer that never
// reads: Close must give up after its flush deadline.
func TestCloseDoesNotWedgeOnStalledPeer(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	ca := NewConn(a)
	if err := ca.Send(&Message{Type: TypeHeartbeat}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ca.Close()
	if d := time.Since(start); d > closeFlushTimeout+time.Second {
		t.Fatalf("Close took %v on a stalled peer", d)
	}
}

// TestWriteFailureIsSticky breaks the socket under a queued write: the
// failure closes the connection, so the reader sees the peer gone, and
// every later Send reports it.
func TestWriteFailureIsSticky(t *testing.T) {
	a, b := loopback(t)
	ca := NewConn(a)
	defer ca.Close()
	b.Close()
	// Writes to a socket whose peer has gone succeed until the reset comes
	// back; keep sending until the writer has seen the failure.
	deadline := time.Now().Add(5 * time.Second)
	var err error
	for err == nil {
		if time.Now().After(deadline) {
			t.Fatal("writes to a closed peer never failed")
		}
		err = ca.Send(&Message{Type: TypeHeartbeat})
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(err.Error(), "write failed") {
		t.Fatalf("sticky error = %v", err)
	}
	if err2 := ca.Send(&Message{Type: TypeHeartbeat}); err2 != err {
		t.Fatalf("second Send returned %v, want the sticky %v", err2, err)
	}
	if err2 := ca.SendPayload(&Message{Type: TypePut, Size: 1}, strings.NewReader("x")); err2 != err {
		t.Fatalf("SendPayload returned %v, want the sticky %v", err2, err)
	}
	if _, _, rerr := ca.Recv(); rerr == nil {
		t.Fatal("read side still open after a failed write")
	}
}

// TestSendBoundedByHighWater fills the queue toward a peer that never
// reads: Send must park at the high-water mark instead of growing the
// queue without bound, and Close must release it.
func TestSendBoundedByHighWater(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	ca := NewConn(a)
	frame := &Message{Type: TypeComplete, Result: make([]byte, 32<<10)}
	sent := make(chan int, 1)
	go func() {
		n := 0
		for ca.Send(frame) == nil {
			n++
		}
		sent <- n
	}()
	time.Sleep(200 * time.Millisecond)
	ca.Close()
	select {
	case n := <-sent:
		// net.Pipe holds nothing, so everything sent sits in the queue or
		// in the one write the stalled writer has in flight.
		if limit := 2*queueHighWater/(32<<10) + 2; n > limit {
			t.Fatalf("queued %d frames of 32 KiB toward a stalled peer, limit %d", n, limit)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release a sender parked at the high-water mark")
	}
}

// TestConnsLeaveNoGoroutines opens, uses and closes many loopback
// connections: every writer goroutine must be gone afterwards.
func TestConnsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		a, b := loopback(t)
		ca, cb := NewConn(a), NewConn(b)
		if err := ca.Send(&Message{Type: TypeHeartbeat}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cb.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := cb.Send(&Message{Type: TypeHeartbeat}); err != nil {
			t.Fatal(err)
		}
		ca.Close()
		cb.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after closing 1000 conns, baseline %d:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
