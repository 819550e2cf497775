package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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
		URL:            "https://example.com/x",
		PeerAddr:       "10.0.0.2:4001",
		TransferID:     "t-77",
		Checksum:       "deadbeef",
		Status:         StatusOK,
		Error:          "nope",
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

// TestFieldTablesNameEveryField: every exported field of Message (but
// Payload, which rides in the frame prologue) and of taskspec.Spec is
// named by exactly one table entry, and each entry's closures read the
// field it names: the entry writes a value for fullMessage and nothing
// once that one field is zeroed.
func TestFieldTablesNameEveryField(t *testing.T) {
	checkTable(t, messageTable[:], fullMessage(), "Payload")
	checkTable(t, specTable[:], fullMessage().Spec)
}

func checkTable[T any](t *testing.T, table []field[T], full *T, exempt ...string) {
	t.Helper()
	named := map[string]int{}
	for id, f := range table {
		if f.enc == nil {
			continue
		}
		named[f.name]++
		zeroed := *full
		fv := reflect.ValueOf(&zeroed).Elem().FieldByName(f.name)
		if !fv.IsValid() {
			t.Errorf("%T field %d names no field %s", zeroed, id, f.name)
			continue
		}
		fv.SetZero()
		if len(f.enc(nil, 0, full)) == 0 || len(f.enc(nil, 0, &zeroed)) != 0 {
			t.Errorf("%T field %d, named %s, does not encode that field", zeroed, id, f.name)
		}
	}
	typ := reflect.TypeFor[T]()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if typ.Field(i).IsExported() && !slices.Contains(exempt, name) && named[name] != 1 {
			t.Errorf("%s.%s is named by %d table entries, want 1", typ.Name(), name, named[name])
		}
	}
}

// reservedIDs lists the field IDs a table keeps reserved.
func reservedIDs[T any](table []field[T]) []int {
	var ids []int
	for id, f := range table {
		if f.reserved {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestReservedTagsUnused: the tables still reserve every retired tag and
// no encoding emits one, so a retired tag never comes back with a new
// meaning; and a frame from an older peer that still sends one decodes
// with every other field intact, whatever the tag's wire type.
func TestReservedTagsUnused(t *testing.T) {
	msgReserved, specReserved := reservedIDs(messageTable[:]), reservedIDs(specTable[:])
	for _, tc := range []struct {
		what          string
		reserved, was []int
	}{{"message", msgReserved, []int{24, 25, 26, 27, 28}}, {"spec", specReserved, []int{16, 17}}} {
		for _, id := range tc.was {
			if !slices.Contains(tc.reserved, id) {
				t.Errorf("%s field table no longer reserves retired tag %d", tc.what, id)
			}
		}
	}
	enc := encodeMessage(nil, fullMessage())
	msgTags, spec := headerTags(t, enc, 6)
	specTags, _ := headerTags(t, spec, 0)
	for _, tc := range []struct {
		what     string
		emitted  []int
		reserved []int
	}{{"message", msgTags, msgReserved}, {"spec", specTags, specReserved}} {
		for _, tag := range tc.emitted {
			if slices.Contains(tc.reserved, tag) {
				t.Errorf("the %s encoding emits reserved tag %d", tc.what, tag)
			}
		}
	}
	for _, id := range msgReserved {
		old := bytesField(varintField(bytes.Clone(enc), id, 7), id, "v1")
		got, err := decodeMessage(old)
		if err != nil {
			t.Fatalf("decoding a frame with reserved tag %d: %v", id, err)
		}
		if !reflect.DeepEqual(got, fullMessage()) {
			t.Fatalf("reserved tag %d changed the decoded message: %+v", id, got)
		}
	}
}

// varintField and bytesField append one header field by hand, for frames
// the encoder never writes: bytesField writes an empty value too.
func varintField(b []byte, id int, v int64) []byte {
	return binary.AppendUvarint(append(b, byte(id<<1|wireVarint)), zigzag(v))
}

func bytesField[S ~string | ~[]byte](b []byte, id int, v S) []byte {
	return appendLen(append(b, byte(id<<1|wireBytes)), v)
}

// headerTags lists the field tags of a header encoding in order, and
// returns the bytes of field want.
func headerTags(t *testing.T, b []byte, want int) ([]int, []byte) {
	t.Helper()
	var tags []int
	var value []byte
	for len(b) > 0 {
		field, wire := int(b[0]>>1), int(b[0]&1)
		tags = append(tags, field)
		var v []byte
		var err error
		if wire == wireVarint {
			_, b, err = uvarint(b[1:])
		} else {
			v, b, err = lenBytes(b[1:])
		}
		if err != nil {
			t.Fatalf("walking field %d: %v", field, err)
		}
		if field == want {
			value = v
		}
	}
	return tags, value
}

// TestBinaryEncodingGolden pins the wire bytes of a few messages: the
// header encoding is the protocol between peers of different builds, so a
// change to the codec must leave every byte here as it is.
func TestBinaryEncodingGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *Message
		hex  string
	}{
		{"full", fullMessage(), "03047461736b0503772d39070d31302e302e302e313a34303030090d108080808010808080808001040a540d730254040207076563686f20686909046c69626d0b067371756172650d030102030f0b0102663106696e2e646174110c01026632076f75742e6461741309020141013101420132150c06808080800880808080400216041880808080808080fc3f1b0562656e63681d0868616e646c652d371e020e05110c726573756c742d62797465731312020674656d702d78f6010674656d702d7900142216882718808080011a808080041d0866696c652d6162631e9a870c20022204251568747470733a2f2f6578616d706c652e636f6d2f78270d31302e302e302e323a343030312904742d37372b0864656164626565662d026f6b2f046e6f7065"},
		{"fuzz", fuzzMessage("put", "w-1", "file-x", 301, -2, 7), "03037075740503772d31070666696c652d780905da04030e020ada040d790203040e07037075740903772d310b0666696c652d780d0666696c652d780f11020370757403772d310666696c652d7800110c0103772d310666696c652d781315020766696c652d783d037075740370757403772d311505da04030e02160e1880808080808080e8bf011b03772d311d0666696c652d781e020e0e110666696c652d78130c0203707574da0403772d310314da041603180e1ad9041d03772d311e0e20022203250666696c652d7827037075742903772d312b0666696c652d782d037075742f03772d31"},
		{"spec_only", &Message{Type: TypeTask, TaskID: 3, Spec: &taskspec.Spec{Kind: taskspec.KindCommand, Command: "true"}},
			"03047461736b0a060d06070474727565"},
		{"empty_spec", &Message{Spec: &taskspec.Spec{}}, "0d00"},
		{"zero", &Message{}, ""},
	} {
		if got := hex.EncodeToString(encodeMessage(nil, tc.m)); got != tc.hex {
			t.Errorf("%s encodes as\n %s\nwant\n %s", tc.name, got, tc.hex)
		}
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
	// Append fields 120 and 121 (unused) with both wire types.
	enc = varintField(enc, 120, 999)
	enc = bytesField(enc, 121, "future data")
	enc = bytesField(enc, 22, StatusOK) // Status
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
	v = varintField(v, 1, 7)     // ID
	v = bytesField(v, 3, "true") // Command
	v = bytesField(v, 16, "old-label")
	v = bytesField(v, 17, "old-bucket")
	v = bytesField(v, 13, "c") // Category
	enc := encodeMessage(nil, &Message{Type: TypeTask})
	enc = bytesField(enc, 6, v) // Spec
	got, err := decodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := &taskspec.Spec{ID: 7, Command: "true", Category: "c"}
	if !reflect.DeepEqual(got.Spec, want) {
		t.Fatalf("spec = %+v, want %+v", got.Spec, want)
	}
}

// TestBinaryCodecRejectsWrongWireType: every known field of both tables,
// sent with the other wire type, is an error naming the field and both
// wire types, not a value read as garbage; retired tags still skip with
// either type.
func TestBinaryCodecRejectsWrongWireType(t *testing.T) {
	head := encodeMessage(nil, &Message{Type: TypeTask, TaskID: 7})
	// Read as bytes, varint 1 would swallow the first byte of head; read
	// as a varint, the empty bytes value would decode as 0.
	wrong := func(id, wire int) []byte {
		if wire == wireBytes {
			return append(varintField(nil, id, 1), head...)
		}
		return append(bytesField(nil, id, ""), head...)
	}
	type tcase struct {
		name string
		enc  []byte
		want string
	}
	var cases []tcase
	for id, f := range messageTable {
		if f.dec != nil {
			cases = append(cases, tcase{strings.ToLower(f.name) + "_as_" + wireNames[1-f.wire], wrong(id, f.wire),
				fmt.Sprintf("message field %d: %s sent as %s, want %s", id, f.name, wireNames[1-f.wire], wireNames[f.wire])})
		}
	}
	for id, f := range specTable {
		if f.dec != nil {
			cases = append(cases, tcase{"spec_" + strings.ToLower(f.name) + "_as_" + wireNames[1-f.wire],
				bytesField(bytes.Clone(head), 6, wrong(id, f.wire)),
				fmt.Sprintf("spec field %d: %s sent as %s, want %s", id, f.name, wireNames[1-f.wire], wireNames[f.wire])})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := decodeMessage(tc.enc)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decoded %+v, err %v; want an error containing %q", m, err, tc.want)
			}
		})
	}
	enc := varintField(bytes.Clone(head), 24, 2)
	enc = bytesField(enc, 24, "v2")
	enc = bytesField(enc, 14, "x") // CacheName
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

// TestBinaryCodecTruncatedHeader: every proper prefix of an encoded header
// either fails to decode or is itself the canonical encoding of what it
// decodes to, so a cut ending between whole fields reads as a message
// with fewer fields and a cut inside one field is an error.
func TestBinaryCodecTruncatedHeader(t *testing.T) {
	enc := encodeMessage(nil, fullMessage())
	decoded := 0
	for cut := 0; cut < len(enc); cut++ {
		m, err := decodeMessage(enc[:cut])
		if err != nil {
			continue
		}
		decoded++
		if re := encodeMessage(nil, m); !bytes.Equal(re, enc[:cut]) {
			t.Fatalf("cut at %d of %d decoded to a message that re-encodes as %x, not the prefix %x",
				cut, len(enc), re, enc[:cut])
		}
	}
	// The empty prefix and each cut between whole fields decode; below two
	// such prefixes the re-encode check would have had nothing to check.
	if decoded < 2 {
		t.Fatalf("only %d prefixes decoded; the canonical-prefix check is vacuous", decoded)
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
