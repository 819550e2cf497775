package protocol

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
)

// fullMessage exercises every encodable field of the union.
func fullMessage() *Message {
	spec := &taskspec.Spec{
		ID:       42,
		Kind:     taskspec.KindFunction,
		Command:  "echo hi",
		Library:  "libm",
		Function: "square",
		Args:     []byte{1, 2, 3},
		Inputs:   []taskspec.Mount{{FileID: "f1", Name: "in.dat"}},
		Outputs:  []taskspec.Mount{{FileID: "f2", Name: "out.dat"}},
		Env:      map[string]string{"B": "2", "A": "1"},
		Resources: resources.R{
			Cores: 3, Memory: 1 << 30, Disk: 1 << 33, GPUs: 1,
		},
		MaxRetries:    2,
		MaxRunSeconds: 1.5,
		Category:      "bench",
	}
	return &Message{
		Type:           TypeTask,
		WorkerID:       "w-9",
		TransferAddr:   "10.0.0.1:4000",
		Capacity:       &resources.R{Cores: 8, Memory: 2 << 30},
		TaskID:         42,
		Spec:           spec,
		ExitCode:       -3,
		Result:         []byte("result-bytes"),
		Outputs:        []OutputInfo{{CacheName: "temp-x", Size: 123}, {CacheName: "temp-y", Size: 0}},
		TimeStagedMS:   17,
		TimeRunMS:      2500,
		MeasuredDisk:   1 << 20,
		MeasuredMemory: 1 << 22,
		CacheName:      "file-abc",
		Size:           98765,
		Dir:            true,
		Lifetime:       2,
		URL:            "https://example.com/x",
		PeerAddr:       "10.0.0.2:4001",
		TransferID:     "t-77",
		Checksum:       "deadbeef",
		Status:         StatusOK,
		Error:          "nope",
		Proto:          ProtoBinary,
		Offset:         4096,
		Total:          1 << 24,
		PeerAddrs:      []string{"10.0.0.3:4002", "10.0.0.4:4003"},
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	want := fullMessage()
	enc := encodeMessage(nil, want)
	got, err := decodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got, want)
	}
}

func TestBinaryCodecZeroMessage(t *testing.T) {
	want := &Message{Type: TypeHeartbeat}
	enc := encodeMessage(nil, want)
	got, err := decodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

// TestBinaryCodecSkipsUnknownFields simulates a newer peer adding a field:
// the decoder must skip it and parse the rest.
func TestBinaryCodecSkipsUnknownFields(t *testing.T) {
	enc := encodeMessage(nil, &Message{Type: TypePut, CacheName: "x"})
	// Append field 120 (unused) with both wire types.
	enc = appendVarintField(enc, 120, 999)
	enc = appendBytesField(enc, 121, []byte("future data"))
	enc = appendStringField(enc, fStatus, StatusOK)
	got, err := decodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypePut || got.CacheName != "x" || got.Status != StatusOK {
		t.Fatalf("got %+v", got)
	}
}

// TestBinaryCodecSkipsRetiredSpecTags: spec tags 16 and 17 are no longer
// encoded, but a frame from an older peer that still carries them must
// decode with every other spec field intact.
func TestBinaryCodecSkipsRetiredSpecTags(t *testing.T) {
	var v []byte
	v = appendVarintField(v, sID, 7)
	v = appendStringField(v, sCommand, "true")
	v = appendStringField(v, 16, "old-label")
	v = appendStringField(v, 17, "old-bucket")
	v = appendStringField(v, sCategory, "c")
	enc := encodeMessage(nil, &Message{Type: TypeTask})
	enc = appendBytesField(enc, fSpec, v)
	got, err := decodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := &taskspec.Spec{ID: 7, Command: "true", Category: "c"}
	if !reflect.DeepEqual(got.Spec, want) {
		t.Fatalf("spec = %+v, want %+v", got.Spec, want)
	}
}

func TestBinaryCodecDeterministicEnv(t *testing.T) {
	m := &Message{Type: TypeTask, Spec: &taskspec.Spec{
		Kind: taskspec.KindCommand, Command: "x",
		Env: map[string]string{"Z": "26", "A": "1", "M": "13"},
	}}
	a := encodeMessage(nil, m)
	for i := 0; i < 16; i++ {
		b := encodeMessage(nil, m)
		if !bytes.Equal(a, b) {
			t.Fatal("encoding of identical message differs across runs")
		}
	}
}

func TestBinaryCodecTruncatedHeader(t *testing.T) {
	enc := encodeMessage(nil, fullMessage())
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := decodeMessage(enc[:cut]); err == nil {
			// A clean prefix of whole fields decodes fine; only verify no
			// panic and no wild success on mid-field cuts by checking a few
			// known-bad offsets below.
			continue
		}
	}
	// Cutting inside the Type string must error.
	if _, err := decodeMessage(enc[:2]); err == nil {
		t.Fatal("mid-field truncation decoded without error")
	}
}

// binaryPair returns two Conns with binary sending enabled on both ends.
func binaryPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	ca, cb := pipePair(t)
	ca.EnableBinary()
	cb.EnableBinary()
	return ca, cb
}

func TestBinaryWireRoundTrip(t *testing.T) {
	ca, cb := binaryPair(t)
	want := fullMessage()
	go func() {
		if err := ca.Send(want); err != nil {
			t.Error(err)
		}
	}()
	got, payload, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if payload != nil {
		t.Fatal("control frame carried payload")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wire mismatch:\n got  %+v\n want %+v", got, want)
	}
}

func TestBinaryPayloadRoundTrip(t *testing.T) {
	ca, cb := binaryPair(t)
	data := bytes.Repeat([]byte("binary-payload"), 4096)
	go func() {
		m := &Message{Type: TypeData, CacheName: "file-bin", Size: int64(len(data)), Checksum: "c"}
		if err := ca.SendPayload(m, bytes.NewReader(data)); err != nil {
			t.Error(err)
		}
	}()
	got, payload, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeData || !got.Payload || got.Size != int64(len(data)) || got.Checksum != "c" {
		t.Fatalf("header = %+v", got)
	}
	body, err := io.ReadAll(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, data) {
		t.Fatalf("payload corrupted: got %d bytes", len(body))
	}
}

// TestMixedFramingOnOneConn verifies per-message autodetect: a JSON message
// followed by a binary frame followed by JSON again, all on one stream.
func TestMixedFramingOnOneConn(t *testing.T) {
	ca, cb := pipePair(t)
	go func() {
		ca.Send(&Message{Type: TypeHeartbeat, WorkerID: "j1"})
		ca.EnableBinary()
		ca.SendPayload(&Message{Type: TypePut, CacheName: "b", Size: 4}, bytes.NewReader([]byte("DATA")))
		// cb never enabled binary: its replies would be JSON; here we just
		// keep sending from ca to prove interleaving decodes.
		ca.Send(&Message{Type: TypeRelease})
	}()
	m1, _, err := cb.Recv()
	if err != nil || m1.Type != TypeHeartbeat || m1.WorkerID != "j1" {
		t.Fatalf("m1=%+v err=%v", m1, err)
	}
	m2, p2, err := cb.Recv()
	if err != nil || m2.Type != TypePut || m2.Size != 4 {
		t.Fatalf("m2=%+v err=%v", m2, err)
	}
	b2, _ := io.ReadAll(p2)
	if string(b2) != "DATA" {
		t.Fatalf("payload=%q", b2)
	}
	m3, _, err := cb.Recv()
	if err != nil || m3.Type != TypeRelease {
		t.Fatalf("m3=%+v err=%v", m3, err)
	}
}

// TestBinaryAbandonedPayloadIsDrained mirrors the JSON drain test.
func TestBinaryAbandonedPayloadIsDrained(t *testing.T) {
	ca, cb := binaryPair(t)
	go func() {
		ca.SendPayload(&Message{Type: TypePut, CacheName: "big", Size: 5000},
			bytes.NewReader(make([]byte, 5000)))
		ca.Send(&Message{Type: TypeHeartbeat})
	}()
	if _, _, err := cb.Recv(); err != nil {
		t.Fatal(err)
	}
	m, _, err := cb.Recv()
	if err != nil || m.Type != TypeHeartbeat {
		t.Fatalf("m=%+v err=%v", m, err)
	}
}

// TestOversizedFrameHeaderRejected feeds a prologue claiming a huge header.
func TestOversizedFrameHeaderRejected(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cb := NewConn(b)
	go func() {
		var prologue [framePrologueLen]byte
		prologue[0] = frameMagic
		prologue[1] = frameVersion
		binary.BigEndian.PutUint32(prologue[3:7], uint32(maxHeaderBytes+1))
		a.Write(prologue[:])
	}()
	if _, _, err := cb.Recv(); err == nil {
		t.Fatal("oversized header accepted")
	}
}

// TestOversizedJSONLineRejected caps hostile JSON control lines too.
func TestOversizedJSONLineRejected(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cb := NewConn(b)
	go func() {
		junk := bytes.Repeat([]byte{'{'}, 1<<20)
		for i := 0; i < 20; i++ {
			if _, err := a.Write(junk); err != nil {
				return
			}
		}
	}()
	errc := make(chan error, 1)
	go func() {
		_, _, err := cb.Recv()
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("unbounded JSON line accepted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv hung on unbounded line")
	}
}

// TestSendPayloadDoesNotMutateSharedMessage is the regression test for the
// broadcast race: one Message sent with payloads on two connections
// concurrently must not be written to by SendPayload. Run under -race.
func TestSendPayloadDoesNotMutateSharedMessage(t *testing.T) {
	ca1, cb1 := pipePair(t)
	ca2, cb2 := pipePair(t)
	shared := &Message{Type: TypePut, CacheName: "bcast", Size: 256}
	data := make([]byte, 256)
	var wg sync.WaitGroup
	for _, pair := range []struct {
		send *Conn
		recv *Conn
	}{{ca1, cb1}, {ca2, cb2}} {
		wg.Add(2)
		go func(c *Conn) {
			defer wg.Done()
			if err := c.SendPayload(shared, bytes.NewReader(data)); err != nil {
				t.Error(err)
			}
		}(pair.send)
		go func(c *Conn) {
			defer wg.Done()
			m, p, err := c.Recv()
			if err != nil {
				t.Error(err)
				return
			}
			if !m.Payload {
				t.Error("payload flag missing on receive")
			}
			io.Copy(io.Discard, p)
		}(pair.recv)
	}
	wg.Wait()
	if shared.Payload {
		t.Fatal("SendPayload mutated the caller's message")
	}
}

// TestNegotiationMatrix exercises the three sender/receiver pairings the
// deployment can produce. "binary" peers enable binary sends after the
// (out-of-band, here simulated) handshake; receivers need no configuration.
func TestNegotiationMatrix(t *testing.T) {
	cases := []struct {
		name    string
		aBinary bool
		bBinary bool
	}{
		{"binary-binary", true, true},
		{"binary-json", true, false},
		{"json-json", false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ca, cb := pipePair(t)
			if tc.aBinary {
				ca.EnableBinary()
			}
			if tc.bBinary {
				cb.EnableBinary()
			}
			go func() {
				ca.SendPayload(&Message{Type: TypePut, CacheName: "m", Size: 2}, bytes.NewReader([]byte("ab")))
			}()
			m, p, err := cb.Recv()
			if err != nil || m.CacheName != "m" {
				t.Fatalf("a->b: m=%+v err=%v", m, err)
			}
			if b, _ := io.ReadAll(p); string(b) != "ab" {
				t.Fatalf("a->b payload %q", b)
			}
			go func() {
				cb.Send(&Message{Type: TypeCacheUpdate, CacheName: "m", Status: StatusOK})
			}()
			r, _, err := ca.Recv()
			if err != nil || r.Type != TypeCacheUpdate || r.Status != StatusOK {
				t.Fatalf("b->a: m=%+v err=%v", r, err)
			}
		})
	}
}
