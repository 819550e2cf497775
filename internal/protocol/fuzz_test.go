package protocol

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
)

// FuzzRecv feeds arbitrary bytes to the message decoder: it must never
// panic or hang, only return messages or errors.
func FuzzRecv(f *testing.F) {
	// Well-formed frames, truncated and corrupt ones, and bytes that are
	// not a frame at all.
	f.Add(binaryFrame(&Message{Type: TypeHeartbeat}, nil))
	f.Add(binaryFrame(&Message{Type: TypePut, CacheName: "x", Size: 3}, []byte("abc")))
	f.Add(binaryFrame(&Message{Type: TypePut, Size: -5}, nil))
	absurd := binaryFrame(&Message{Type: TypePut, CacheName: "x"}, []byte("abc"))
	binary.BigEndian.PutUint64(absurd[7:15], 1<<63)
	f.Add(absurd)
	f.Add(binaryFrame(&Message{Type: TypeTask, TaskID: 1, Spec: &taskspec.Spec{ID: 1, Command: "x"}}, nil))
	f.Add([]byte("not a frame at all\n"))
	f.Add([]byte{0, 1, 2, '\n', 0xff})
	f.Add(binaryFrame(&Message{Type: TypeData, CacheName: "y", Checksum: "c", Size: 8}, []byte("8 bytes!")))
	f.Add(binaryFrame(&Message{Type: TypeTask, TaskID: 5}, nil)[:7])
	f.Add([]byte{frameMagic, frameVersion, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{frameMagic, 99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(append(binaryFrame(&Message{Type: TypeGet, CacheName: "y"}, nil),
		binaryFrame(&Message{Type: TypeRelease}, nil)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		conn := NewConn(b)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				m, payload, err := conn.Recv()
				if err != nil {
					return
				}
				if m.Payload && payload != nil {
					io.Copy(io.Discard, payload)
				}
			}
		}()
		a.Write(data)
		a.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("decoder hung")
		}
	})
}

// binaryFrame renders one binary frame (header + optional payload) as raw
// bytes, for fuzz seeds.
func binaryFrame(m *Message, payload []byte) []byte {
	h := encodeMessage(nil, m)
	out := make([]byte, framePrologueLen, framePrologueLen+len(h)+len(payload))
	out[0] = frameMagic
	out[1] = frameVersion
	if payload != nil {
		out[2] = frameFlagPayload
	}
	out[3] = byte(len(h) >> 24)
	out[4] = byte(len(h) >> 16)
	out[5] = byte(len(h) >> 8)
	out[6] = byte(len(h))
	if payload != nil {
		n := uint64(len(payload))
		for i := 0; i < 8; i++ {
			out[7+i] = byte(n >> (56 - 8*i))
		}
	}
	out = append(out, h...)
	return append(out, payload...)
}

// FuzzBinaryDecode throws arbitrary bytes at the frame-header decoder
// directly: it must only ever return a message or an error.
func FuzzBinaryDecode(f *testing.F) {
	f.Add(encodeMessage(nil, &Message{Type: TypeHeartbeat}))
	// A get from an older peer that still sends the retired ranged-get
	// and alternate-holder tags.
	f.Add(bytesField(varintField(encodeMessage(nil, &Message{Type: TypeGet, CacheName: "x"}), 25, 1), 27, "a:1"))
	f.Add([]byte{0x03, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeMessage(data)
	})
}

// FuzzBinaryCanonical checks that decoding is canonical: any header that
// decodes to m1 re-encodes to bytes that decode to a message equal to m1,
// and that message re-encodes to the same bytes. A decoder that kept a
// value the encoder omits (an explicit empty list, a zero capacity) would
// let two encodings of one message decode differently.
func FuzzBinaryCanonical(f *testing.F) {
	f.Add(encodeMessage(nil, fullMessage()))
	f.Add(encodeMessage(nil, fuzzMessage("put", "w-1", "file-x", 301, -2, 7)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m1, err := decodeMessage(data)
		if err != nil {
			return
		}
		enc := encodeMessage(nil, m1)
		m2, err := decodeMessage(enc)
		if err != nil {
			t.Fatalf("decode of a re-encoded header failed: %v", err)
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("re-encoding changed the message:\n first  %+v\n second %+v", m1, m2)
		}
		if again := encodeMessage(nil, m2); !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a fixed point:\n %x\n %x", enc, again)
		}
	})
}

// FuzzBinaryRoundTrip checks encode→decode identity over fuzz-built
// messages that set every encoded field of Message and of its Spec,
// Capacity and Outputs, each derived from the six fuzzed values.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add("put", "w1", "file-x", int64(9), int64(3), int64(12))
	f.Add("get", "", "", int64(-1), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, n1, n2, n3 int64) {
		sent := fuzzMessage(s1, s2, s3, n1, n2, n3)
		got, err := decodeMessage(encodeMessage(nil, sent))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(got, sent) {
			t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got, sent)
		}
	})
}

// fuzzMessage builds a message with every encoded field set from the given
// values, normalized the way the codec normalizes them: empty byte slices
// and a zero capacity decode as nil, and a spec always decodes as present.
func fuzzMessage(s1, s2, s3 string, n1, n2, n3 int64) *Message {
	b, flag, x := []byte(s3), n1&1 == 1, float64(n2)/8
	if len(b) == 0 {
		b = nil
	}
	res := resources.R{Cores: int(n1), Memory: n2, Disk: n3, GPUs: int(n1 >> 8)}
	var capacity *resources.R
	if !res.IsZero() {
		capacity = &res
	}
	return &Message{
		Type: s1, WorkerID: s2, TransferAddr: s3, Capacity: capacity, TaskID: int(n1),
		Spec: &taskspec.Spec{
			ID: int(n2), Kind: taskspec.Kind(n3), Command: s1, Library: s2, Function: s3, Args: b,
			Inputs:    []taskspec.Mount{{FileID: s1, Name: s2}, {FileID: s3, Name: ""}},
			Outputs:   []taskspec.Mount{{FileID: s2, Name: s3}},
			Env:       map[string]string{s1: s2, s3 + "=": s1},
			Resources: res, MaxRetries: int(n3), MaxRunSeconds: x,
			Category: s2, ArgsFrom: s3, Resident: flag,
		},
		ExitCode: int(n3), Result: b,
		Outputs:      []OutputInfo{{CacheName: s1, Size: n1}, {CacheName: s2, Size: n2}},
		TimeStagedMS: n1, TimeRunMS: n2, MeasuredDisk: n3, MeasuredMemory: n1 ^ n2,
		CacheName: s2, Size: n3, Dir: flag, Lifetime: int(n2),
		URL: s3, PeerAddr: s1, TransferID: s2, Checksum: s3, Status: s1, Error: s2,
	}
}

// FuzzRoundTrip checks that any message surviving a send is received
// identically.
func FuzzRoundTrip(f *testing.F) {
	f.Add("register", "w1", "addr:1", int64(0), "")
	f.Add("put", "", "", int64(10), "0123456789")
	f.Add("cache-update", "w2", "", int64(0), "")
	f.Fuzz(func(t *testing.T, typ, workerID, addr string, size int64, payload string) {
		if size < 0 || size > 1<<16 || int64(len(payload)) != size {
			t.Skip()
		}
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		ca, cb := NewConn(a), NewConn(b)
		sent := &Message{Type: typ, WorkerID: workerID, TransferAddr: addr, Size: size}
		errc := make(chan error, 1)
		go func() {
			if size > 0 {
				errc <- ca.SendPayload(sent, bytes.NewReader([]byte(payload)))
			} else {
				errc <- ca.Send(sent)
			}
		}()
		got, body, err := cb.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if serr := <-errc; serr != nil {
			t.Fatalf("send: %v", serr)
		}
		if got.Type != typ || got.WorkerID != workerID || got.TransferAddr != addr {
			t.Fatalf("got %+v want %+v", got, sent)
		}
		if size > 0 {
			b, _ := io.ReadAll(body)
			if string(b) != payload {
				t.Fatalf("payload %q want %q", b, payload)
			}
		}
	})
}
