package protocol

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
)

// pipePair returns two Conns joined by an in-memory duplex pipe.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

func TestControlRoundTrip(t *testing.T) {
	ca, cb := pipePair(t)
	sent := &Message{
		Type:         TypeRegister,
		WorkerID:     "w1",
		TransferAddr: "127.0.0.1:9999",
		Capacity:     &resources.R{Cores: 4, Memory: 16 * resources.GB},
	}
	go func() {
		if err := ca.Send(sent); err != nil {
			t.Error(err)
		}
	}()
	got, payload, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if payload != nil {
		t.Fatal("control message carried payload")
	}
	if got.Type != TypeRegister || got.WorkerID != "w1" || got.Capacity.Cores != 4 {
		t.Fatalf("got %+v", got)
	}
}

// TestPayloadRoundTrip: a frame's header, including an optional checksum,
// and its payload arrive intact.
func TestPayloadRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		sent Message
		data []byte
	}{
		{"put", Message{Type: TypePut, CacheName: "file-abc"}, bytes.Repeat([]byte("0123456789"), 1000)},
		{"data_with_checksum", Message{Type: TypeData, CacheName: "file-bin", Checksum: "c"},
			bytes.Repeat([]byte("binary-payload"), 4096)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ca, cb := pipePair(t)
			go func() {
				m := tc.sent
				m.Size = int64(len(tc.data))
				if err := ca.SendPayload(&m, bytes.NewReader(tc.data)); err != nil {
					t.Error(err)
				}
			}()
			got, payload, err := cb.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if got.Type != tc.sent.Type || got.CacheName != tc.sent.CacheName || !got.Payload ||
				got.Size != int64(len(tc.data)) || got.Checksum != tc.sent.Checksum {
				t.Fatalf("header = %+v", got)
			}
			body, err := io.ReadAll(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, tc.data) {
				t.Fatalf("payload corrupted: got %d bytes", len(body))
			}
		})
	}
}

func TestBackToBackMessages(t *testing.T) {
	ca, cb := pipePair(t)
	go func() {
		ca.SendPayload(&Message{Type: TypePut, CacheName: "a", Size: 3}, strings.NewReader("AAA"))
		ca.Send(&Message{Type: TypeHeartbeat})
		ca.SendPayload(&Message{Type: TypePut, CacheName: "b", Size: 2}, strings.NewReader("BB"))
	}()
	m1, p1, err := cb.Recv()
	if err != nil || m1.CacheName != "a" {
		t.Fatalf("m1=%+v err=%v", m1, err)
	}
	b1, _ := io.ReadAll(p1)
	if string(b1) != "AAA" {
		t.Fatalf("p1=%q", b1)
	}
	m2, _, err := cb.Recv()
	if err != nil || m2.Type != TypeHeartbeat {
		t.Fatalf("m2=%+v err=%v", m2, err)
	}
	m3, p3, err := cb.Recv()
	if err != nil || m3.CacheName != "b" {
		t.Fatalf("m3=%+v err=%v", m3, err)
	}
	b3, _ := io.ReadAll(p3)
	if string(b3) != "BB" {
		t.Fatalf("p3=%q", b3)
	}
}

func TestAbandonedPayloadIsDrained(t *testing.T) {
	ca, cb := pipePair(t)
	go func() {
		ca.SendPayload(&Message{Type: TypePut, CacheName: "big", Size: 5000},
			bytes.NewReader(make([]byte, 5000)))
		ca.Send(&Message{Type: TypeHeartbeat})
	}()
	if _, _, err := cb.Recv(); err != nil {
		t.Fatal(err)
	}
	// Do not read the payload; the next Recv must skip it.
	m, _, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeHeartbeat {
		t.Fatalf("got %+v", m)
	}
}

func TestPartiallyReadPayloadIsDrained(t *testing.T) {
	ca, cb := pipePair(t)
	go func() {
		ca.SendPayload(&Message{Type: TypePut, CacheName: "big", Size: 1000},
			bytes.NewReader(make([]byte, 1000)))
		ca.Send(&Message{Type: TypeHeartbeat})
	}()
	_, p, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(io.Discard, p, 100); err != nil {
		t.Fatal(err)
	}
	m, _, err := cb.Recv()
	if err != nil || m.Type != TypeHeartbeat {
		t.Fatalf("m=%+v err=%v", m, err)
	}
}

func TestShortPayloadRejected(t *testing.T) {
	ca, _ := pipePair(t)
	errc := make(chan error, 1)
	go func() {
		errc <- ca.SendPayload(&Message{Type: TypePut, Size: 100}, strings.NewReader("short"))
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("short payload accepted")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SendPayload hung on short payload")
	}
}

func TestTaskSpecOverWire(t *testing.T) {
	ca, cb := pipePair(t)
	spec := &taskspec.Spec{
		ID:      7,
		Kind:    taskspec.KindCommand,
		Command: "blast -db landmark -q query",
		Env:     map[string]string{"BLASTDB": "landmark"},
		Resources: resources.R{
			Cores: 4,
		},
	}
	spec.AddInput("url-db", "landmark")
	spec.AddOutput("temp-out", "results.txt")
	go func() {
		if err := ca.Send(&Message{Type: TypeTask, TaskID: 7, Spec: spec}); err != nil {
			t.Error(err)
		}
	}()
	got, _, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec == nil || got.Spec.Command != spec.Command ||
		len(got.Spec.Inputs) != 1 || got.Spec.Env["BLASTDB"] != "landmark" {
		t.Fatalf("spec did not survive the wire: %+v", got.Spec)
	}
}

func TestMalformedMessage(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cb := NewConn(b)
	go func() {
		a.Write([]byte("this is not json\n"))
	}()
	_, _, err := cb.Recv()
	if err == nil {
		t.Fatal("malformed message accepted")
	}
	// The error names the offending first byte, 't'.
	if !strings.Contains(err.Error(), "0x74") {
		t.Fatalf("error %q does not name the first byte", err)
	}
}

func TestConcurrentSendersDoNotInterleave(t *testing.T) {
	ca, cb := pipePair(t)
	const n = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2*n; i++ {
			m, p, err := cb.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			if m.Type == TypePut {
				body, err := io.ReadAll(p)
				if err != nil || int64(len(body)) != m.Size {
					t.Errorf("payload of %s corrupted: %d bytes err=%v", m.CacheName, len(body), err)
					return
				}
			}
		}
	}()
	var senders [2]func()
	senders[0] = func() {
		for i := 0; i < n; i++ {
			data := bytes.Repeat([]byte{byte(i)}, 512)
			ca.SendPayload(&Message{Type: TypePut, CacheName: "x", Size: 512}, bytes.NewReader(data))
		}
	}
	senders[1] = func() {
		for i := 0; i < n; i++ {
			ca.Send(&Message{Type: TypeHeartbeat})
		}
	}
	go senders[0]()
	go senders[1]()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("receiver did not finish; messages likely interleaved")
	}
}

func TestDialRealSocket(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := NewConn(nc)
		m, _, err := c.Recv()
		if err == nil {
			m.Status = "echoed"
			c.Send(m)
		}
	}()
	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&Message{Type: TypeHeartbeat, WorkerID: "w9"}); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.WorkerID != "w9" || got.Status != "echoed" {
		t.Fatalf("echo mismatch: %+v", got)
	}
}
