package core

// Tests for the manager's wire path: a put-execute-fetch round trip over
// binary frames, rejection of a peer that does not speak them, large data
// payloads travelling through the disk spool rather than memory, and
// oversized control frames rejected without allocation.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"taskvine/internal/files"
	"taskvine/internal/protocol"
	"taskvine/internal/resources"
)

// TestProtoNegotiationMatrix runs a complete put-execute-fetch round trip
// over the manager↔worker link for every framing pairing a manager and a
// worker can settle on. Binary frames are the only framing left, so the
// matrix holds one pairing; the name is kept so the round trip stays
// tracked under the name it has always had.
func TestProtoNegotiationMatrix(t *testing.T) {
	for _, name := range []string{"binary-binary"} {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, 1, Config{})
			in, err := h.m.Files().DeclareBuffer([]byte("framing matrix"), files.LifetimeWorkflow)
			if err != nil {
				t.Fatal(err)
			}
			out := h.m.Files().DeclareTemp()
			spec := command("tr a-z A-Z < in > out")
			spec.AddInput(in.ID, "in")
			spec.AddOutput(out.ID, "out")
			if _, err := h.m.Submit(spec); err != nil {
				t.Fatal(err)
			}
			if r := waitResult(t, h.m); !r.OK {
				t.Fatalf("task failed: %+v", r)
			}
			got, err := h.m.FetchFile(context.Background(), out.ID)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "FRAMING MATRIX" {
				t.Fatalf("fetched %q", got)
			}
		})
	}
}

// TestNonBinaryPeerRejected writes the JSON register line a worker from
// before binary-only framing, or a netcat session, would send. The manager
// must close the connection promptly, log the offending first byte and
// register nobody, and a real worker that registers afterwards must still
// run a task.
func TestNonBinaryPeerRejected(t *testing.T) {
	// Buffered so the manager's log calls never wait on the test; lines
	// beyond the buffer are dropped, and the one sought is among the first.
	logged := make(chan string, 64)
	h := newHarness(t, 0, Config{Logger: log.New(lineFunc(func(line string) {
		select {
		case logged <- line:
		default:
		}
	}), "", 0)})
	nc, err := net.DialTimeout("tcp", h.m.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte(`{"type":"register","worker_id":"legacy","capacity":{"cores":1}}` + "\n")); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := nc.Read(make([]byte, 1)); n > 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after a JSON line: read %d bytes, err=%v", n, err)
	}
	deadline := time.After(5 * time.Second)
	for found := false; !found; {
		select {
		case line := <-logged:
			found = strings.Contains(line, "0x7b")
		case <-deadline:
			t.Fatal("manager did not log the bad first byte")
		}
	}
	if ws := h.m.Status().Workers; len(ws) != 0 {
		t.Fatalf("non-binary peer registered: %+v", ws)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.addWorker(t, ctx, 0, t.TempDir())
	if _, err := h.m.Submit(command("echo after legacy")); err != nil {
		t.Fatal(err)
	}
	if r := waitResult(t, h.m); !r.OK || !strings.Contains(string(r.Output), "after legacy") {
		t.Fatalf("result = %+v", r)
	}
}

// TestSpooledLargePayloadRoundTrip fetches an object larger than the spool
// threshold: the payload must stream through the manager's disk spool
// (checksummed on the way) and come back byte-identical, with no spool
// temp files leaked.
func TestSpooledLargePayloadRoundTrip(t *testing.T) {
	h := newHarness(t, 1, Config{})
	const n = 2 * spoolThreshold
	out := h.m.Files().DeclareTemp()
	spec := command(fmt.Sprintf("yes x | head -c %d > out", n))
	spec.AddOutput(out.ID, "out")
	if _, err := h.m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	r := waitResult(t, h.m)
	if !r.OK {
		t.Fatalf("producer failed: %+v", r)
	}
	got, err := h.m.FetchFile(context.Background(), out.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("fetched %d bytes, want %d", len(got), n)
	}
	if !bytes.Equal(got[:4], []byte("x\nx\n")) || !bytes.Equal(got[n-2:], []byte("x\n")) {
		t.Fatalf("fetched content corrupt at edges: %q ... %q", got[:4], got[n-2:])
	}
}

// TestOversizedControlFrameRejected sends a control message whose claimed
// payload size exceeds MaxControlPayload. The manager must answer with an
// error frame instead of allocating the attacker-controlled size, and the
// connection must survive to reject a second attempt the same way.
func TestOversizedControlFrameRejected(t *testing.T) {
	h := newHarness(t, 0, Config{})
	conn, err := protocol.Dial(h.m.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&protocol.Message{
		Type: protocol.TypeRegister, WorkerID: "rogue",
		Capacity: &resources.R{Cores: 1},
	}); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, protocol.MaxControlPayload+1)
	for i := 0; i < 2; i++ {
		errc := make(chan error, 1)
		go func() {
			errc <- conn.SendPayload(&protocol.Message{
				Type: protocol.TypeComplete, TaskID: 1, CacheName: "bomb",
				Size: int64(len(huge)),
			}, bytes.NewReader(huge))
		}()
		m, _, err := conn.Recv()
		if err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
		if m.Type != protocol.TypeError || !strings.Contains(m.Error, "exceeds limit") {
			t.Fatalf("attempt %d answered %+v", i, m)
		}
		if err := <-errc; err != nil {
			t.Fatalf("attempt %d send: %v", i, err)
		}
	}
}
