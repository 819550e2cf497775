package protocol

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
)

// fullMessage exercises every encodable field of the union;
// TestFullMessageCoversEveryField keeps that claim true.
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
		ArgsFrom:      "handle-7",
		Resident:      true,
	}
	return &Message{
		Type:           TypeTask,
		WorkerID:       "w-9",
		TransferAddr:   "10.0.0.1:4000",
		Capacity:       &resources.R{Cores: 8, Memory: 2 << 30, Disk: 1 << 34, GPUs: 2},
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
		Tier:           1,
		URL:            "https://example.com/x",
		PeerAddr:       "10.0.0.2:4001",
		TransferID:     "t-77",
		Checksum:       "deadbeef",
		Status:         StatusOK,
		Error:          "nope",
		Offset:         4096,
		Total:          1 << 24,
		PeerAddrs:      []string{"10.0.0.3:4002", "10.0.0.4:4003"},
	}
}

// TestFullMessageCoversEveryField fails when an exported field of a type
// the codec carries is zero in every value fullMessage builds, so a field
// added to the wire types without a round-trip case cannot slip past the
// codec tests. FuzzBinaryRoundTrip's builder is held to the same rule.
// Payload is exempt: it rides in the frame prologue's flag, which the
// payload round-trip tests cover.
func TestFullMessageCoversEveryField(t *testing.T) {
	for name, m := range map[string]*Message{
		"fullMessage": fullMessage(),
		"fuzzMessage": fuzzMessage("a", "b", "c", 301, 2, 3),
	} {
		for _, f := range zeroFields(m) {
			t.Errorf("%s leaves %s zero", name, f)
		}
	}
}

// zeroFields lists the exported fields of the codec's types that are zero
// everywhere in m.
func zeroFields(m *Message) []string {
	seen := map[string]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if !f.IsExported() {
					continue
				}
				if !v.Field(i).IsZero() {
					seen[v.Type().Name()+"."+f.Name] = true
				}
				walk(v.Field(i))
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(m))
	var zero []string
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Message{}), reflect.TypeOf(taskspec.Spec{}), reflect.TypeOf(taskspec.Mount{}),
		reflect.TypeOf(resources.R{}), reflect.TypeOf(OutputInfo{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := typ.Name() + "." + f.Name
			if f.IsExported() && !seen[name] && name != "Message.Payload" {
				zero = append(zero, name)
			}
		}
	}
	return zero
}

// TestReservedTagsUnused: no field table names a reserved tag and no
// encoding emits one, so a retired tag never comes back with a new
// meaning; and a frame from an older peer that still sends one decodes
// with every other field intact, whatever the tag's wire type.
func TestReservedTagsUnused(t *testing.T) {
	for _, tc := range []struct {
		what     string
		fields   []fieldWire
		reserved []int
	}{
		{"message", messageFields[:], reservedMessageTags},
		{"spec", specFields[:], reservedSpecTags},
	} {
		for _, tag := range tc.reserved {
			if tag < len(tc.fields) && tc.fields[tag].name != "" {
				t.Errorf("%s field table names reserved tag %d %s", tc.what, tag, tc.fields[tag].name)
			}
		}
	}
	enc := encodeMessage(nil, fullMessage())
	msgTags, spec := headerTags(t, enc, fSpec)
	specTags, _ := headerTags(t, spec, 0)
	for _, tc := range []struct {
		what     string
		emitted  []int
		reserved []int
	}{{"message", msgTags, reservedMessageTags}, {"spec", specTags, reservedSpecTags}} {
		for _, tag := range tc.emitted {
			if slices.Contains(tc.reserved, tag) {
				t.Errorf("the %s encoding emits reserved tag %d", tc.what, tag)
			}
		}
	}
	for _, tag := range reservedMessageTags {
		old := appendStringField(appendVarintField(bytes.Clone(enc), tag, 7), tag, "v1")
		got, err := decodeMessage(old)
		if err != nil {
			t.Fatalf("decoding a frame with reserved tag %d: %v", tag, err)
		}
		if !reflect.DeepEqual(got, fullMessage()) {
			t.Fatalf("reserved tag %d changed the decoded message: %+v", tag, got)
		}
	}
}

// headerTags lists the field tags of a header encoding in order, and
// returns the bytes of field want.
func headerTags(t *testing.T, b []byte, want int) ([]int, []byte) {
	t.Helper()
	d := &decoder{b: b}
	var tags []int
	var value []byte
	for !d.done() {
		tag := d.b[d.off]
		d.off++
		field, wire := int(tag>>1), int(tag&1)
		tags = append(tags, field)
		start := d.off
		if err := d.skip(wire); err != nil {
			t.Fatalf("walking field %d: %v", field, err)
		}
		if field == want {
			value, _ = (&decoder{b: d.b[start:d.off]}).bytes()
		}
	}
	return tags, value
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

// TestBinaryCodecRejectsWrongWireType: a known field sent with the other
// wire type is an error naming the field and both wire types, not a value
// read as garbage; unknown and retired tags still skip with either type.
func TestBinaryCodecRejectsWrongWireType(t *testing.T) {
	head := encodeMessage(nil, &Message{Type: TypeTask})
	for _, tc := range []struct {
		name string
		enc  []byte
		want string
	}{
		// Read as a string, varint 1 would swallow the TaskID field after it.
		{"type_as_varint", appendVarintField(appendVarintField(nil, fType, 1), fTaskID, 7),
			"field 1: Type sent as varint, want bytes"},
		// Read as a varint, the empty bytes value would decode as TaskID 0.
		{"taskid_as_bytes", append(append([]byte(nil), head...), fTaskID<<1|wireBytes, 0),
			"field 5: TaskID sent as bytes, want varint"},
		{"spec_kind_as_bytes", appendBytesField(append([]byte(nil), head...), fSpec,
			appendBytesField(nil, sKind, []byte("command"))), "spec field 2: Kind sent as bytes, want varint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := decodeMessage(tc.enc)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decoded %+v, err %v; want an error containing %q", m, err, tc.want)
			}
		})
	}
	enc := appendVarintField(append([]byte(nil), head...), 24, 2)
	enc = appendBytesField(enc, 24, []byte("v2"))
	enc = appendStringField(enc, fCacheName, "x")
	m, err := decodeMessage(enc)
	if err != nil || m.Type != TypeTask || m.CacheName != "x" {
		t.Fatalf("retired tag 24 not skipped: %+v, %v", m, err)
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

func TestBinaryWireRoundTrip(t *testing.T) {
	ca, cb := pipePair(t)
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

// TestBinaryAbandonedPayloadIsDrained: the next Recv skips a payload the
// caller never read, even one larger than the read buffer, and the payload
// frame after it arrives intact.
func TestBinaryAbandonedPayloadIsDrained(t *testing.T) {
	ca, cb := pipePair(t)
	next := bytes.Repeat([]byte("after-drain"), 100)
	go func() {
		ca.SendPayload(&Message{Type: TypePut, CacheName: "big", Size: 1 << 17},
			bytes.NewReader(make([]byte, 1<<17)))
		ca.SendPayload(&Message{Type: TypeData, CacheName: "next", Size: int64(len(next))},
			bytes.NewReader(next))
	}()
	if _, _, err := cb.Recv(); err != nil {
		t.Fatal(err)
	}
	m, p, err := cb.Recv()
	if err != nil || m.Type != TypeData || m.CacheName != "next" {
		t.Fatalf("m=%+v err=%v", m, err)
	}
	body, err := io.ReadAll(p)
	if err != nil || !bytes.Equal(body, next) {
		t.Fatalf("payload after drain: %d bytes, err %v", len(body), err)
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
