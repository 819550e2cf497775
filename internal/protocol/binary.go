// Binary framing for the TaskVine wire protocol, the only framing on
// every link.
//
// A frame is a fixed 15-byte prologue followed by a compact
// tag/value-encoded header and an optional raw payload:
//
//	offset 0      magic byte 0xBF
//	offset 1      frame format version (currently 1)
//	offset 2      flags: bit 0 set when a payload follows the header
//	offset 3..6   header length, uint32 big-endian
//	offset 7..14  payload length, uint64 big-endian (0 when no payload)
//	offset 15..   header bytes, then payload bytes
//
// The header encodes Message fields as (tag, value) pairs. A tag byte is
// fieldID<<1 | wiretype with wiretype 0 = zigzag varint and wiretype 1 =
// uvarint-length-prefixed bytes, so unknown fields from newer peers are
// skippable. Zero-valued fields are omitted. Map fields (a task spec's
// environment) are encoded in sorted key order so the encoding of a
// message is deterministic.
//
// One field table per encoded type, messageTable and specTable, is the
// whole codec. Each is indexed by field ID, and each entry holds the
// field's name, its wire type, and typed closures that append it and set
// it, built by the constructors str, raw, varint, flag, float and nested.
// One generic loop encodes a value in tag order and one decodes it. The
// decoder rejects a known field sent with the other wire type, and skips
// a reserved entry (a retired tag) or a tag past the table whatever its
// wire type. Decoding is canonical: whatever the encoder omits (an empty
// list or map, a zero capacity) decodes as the zero value, so re-encoding
// a decoded header yields the same message.
package protocol

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"taskvine/internal/resources"
	"taskvine/internal/taskspec"
)

const (
	frameMagic       = 0xBF
	frameVersion     = 1
	frameFlagPayload = 0x01
	framePrologueLen = 15

	// maxHeaderBytes bounds a frame header: a peer claiming more is
	// malformed, not a reason to allocate without limit. Inline task results and serialized function arguments ride in
	// the header, so the cap is generous.
	maxHeaderBytes = 16 << 20
)

// MaxControlPayload bounds the payload size the manager will buffer in
// memory for control-plane messages. Data-plane payloads (TypeData object
// fetches) are exempt: they stream through bounded readers or spool to
// disk instead of being materialized. Oversized control payloads are
// rejected with TypeError rather than allocated.
const MaxControlPayload int64 = 8 << 20

const (
	wireVarint = 0
	wireBytes  = 1
)

var wireNames = [...]string{wireVarint: "varint", wireBytes: "bytes"}

// messageTable is the Message codec, indexed by field ID. The IDs are the
// wire format: never renumber, only append, and keep a retired ID as a
// reserved entry so no field ever takes it again. Payload is not here: it
// travels in the frame prologue.
var messageTable = [...]field[Message]{
	1:  str("Type", func(m *Message) *string { return &m.Type }),
	2:  str("WorkerID", func(m *Message) *string { return &m.WorkerID }),
	3:  str("TransferAddr", func(m *Message) *string { return &m.TransferAddr }),
	4:  nested("Capacity", func(m *Message) **resources.R { return &m.Capacity }, putCapacity, getCapacity),
	5:  varint("TaskID", func(m *Message) *int { return &m.TaskID }),
	6:  nested("Spec", func(m *Message) **taskspec.Spec { return &m.Spec }, putSpec, getSpec),
	7:  varint("ExitCode", func(m *Message) *int { return &m.ExitCode }),
	8:  raw("Result", func(m *Message) *[]byte { return &m.Result }),
	9:  nested("Outputs", func(m *Message) *[]OutputInfo { return &m.Outputs }, putOutputs, getOutputs),
	10: varint("TimeStagedMS", func(m *Message) *int64 { return &m.TimeStagedMS }),
	11: varint("TimeRunMS", func(m *Message) *int64 { return &m.TimeRunMS }),
	12: varint("MeasuredDisk", func(m *Message) *int64 { return &m.MeasuredDisk }),
	13: varint("MeasuredMemory", func(m *Message) *int64 { return &m.MeasuredMemory }),
	14: str("CacheName", func(m *Message) *string { return &m.CacheName }),
	15: varint("Size", func(m *Message) *int64 { return &m.Size }),
	16: flag("Dir", func(m *Message) *bool { return &m.Dir }),
	17: varint("Lifetime", func(m *Message) *int { return &m.Lifetime }),
	18: str("URL", func(m *Message) *string { return &m.URL }),
	19: str("PeerAddr", func(m *Message) *string { return &m.PeerAddr }),
	20: str("TransferID", func(m *Message) *string { return &m.TransferID }),
	21: str("Checksum", func(m *Message) *string { return &m.Checksum }),
	22: str("Status", func(m *Message) *string { return &m.Status }),
	23: str("Error", func(m *Message) *string { return &m.Error }),
	24: reserved[Message]("framing-negotiation version"),
	25: reserved[Message]("ranged-get offset"),
	26: reserved[Message]("ranged-get total"),
	27: reserved[Message]("alternate peer addresses"),
	28: reserved[Message]("cache-update tier"),
}

// specTable is the task spec codec, a nested field space of its own.
var specTable = [...]field[taskspec.Spec]{
	1:  varint("ID", func(s *taskspec.Spec) *int { return &s.ID }),
	2:  varint("Kind", func(s *taskspec.Spec) *taskspec.Kind { return &s.Kind }),
	3:  str("Command", func(s *taskspec.Spec) *string { return &s.Command }),
	4:  str("Library", func(s *taskspec.Spec) *string { return &s.Library }),
	5:  str("Function", func(s *taskspec.Spec) *string { return &s.Function }),
	6:  raw("Args", func(s *taskspec.Spec) *[]byte { return &s.Args }),
	7:  nested("Inputs", func(s *taskspec.Spec) *[]taskspec.Mount { return &s.Inputs }, putMounts, getMounts),
	8:  nested("Outputs", func(s *taskspec.Spec) *[]taskspec.Mount { return &s.Outputs }, putMounts, getMounts),
	9:  nested("Env", func(s *taskspec.Spec) *map[string]string { return &s.Env }, putEnv, getEnv),
	10: nested("Resources", func(s *taskspec.Spec) *resources.R { return &s.Resources }, putResources, getResources),
	11: varint("MaxRetries", func(s *taskspec.Spec) *int { return &s.MaxRetries }),
	12: float("MaxRunSeconds", func(s *taskspec.Spec) *float64 { return &s.MaxRunSeconds }),
	13: str("Category", func(s *taskspec.Spec) *string { return &s.Category }),
	14: str("ArgsFrom", func(s *taskspec.Spec) *string { return &s.ArgsFrom }),
	15: flag("Resident", func(s *taskspec.Spec) *bool { return &s.Resident }),
	16: reserved[taskspec.Spec]("routing label"),
	17: reserved[taskspec.Spec]("routing bucket"),
}

// encodeMessage appends the binary header encoding of m to b.
func encodeMessage(b []byte, m *Message) []byte { return encode(b, messageTable[:], m) }

// decodeMessage parses a binary frame header into a Message.
func decodeMessage(b []byte) (*Message, error) {
	m := &Message{}
	if err := decode("message", messageTable[:], b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// headerBufPool recycles frame-header read buffers. Buffers that grew past
// a frame-header-sized payload are dropped rather than pinned forever.
var headerBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

func getHeaderBuf() *[]byte { return headerBufPool.Get().(*[]byte) }
func putHeaderBuf(b *[]byte) {
	if cap(*b) <= 1<<20 {
		*b = (*b)[:0]
		headerBufPool.Put(b)
	}
}

// copyBufPool recycles bulk-copy buffers for payload streaming.
var copyBufPool = sync.Pool{
	New: func() any { b := make([]byte, 64<<10); return &b },
}

// CopyBuffer copies src to dst through a pooled 64 KiB buffer, avoiding the
// per-call allocation of io.Copy on paths that move payloads. It is the
// copy primitive of every streaming transfer path.
func CopyBuffer(dst io.Writer, src io.Reader) (int64, error) {
	bp := copyBufPool.Get().(*[]byte)
	n, err := io.CopyBuffer(dst, src, *bp)
	copyBufPool.Put(bp)
	return n, err
}

// ---- the table-driven codec ----

// field is one entry of a field table. enc appends the field of v behind
// its tag byte, or nothing when the value is one the encoder omits; dec
// sets the field of v from a decoded varint u or bytes value b, whichever
// wire carries it. An entry without dec is not a field: tag 0, or a
// reserved (retired) tag.
type field[T any] struct {
	name     string
	wire     int
	reserved bool
	enc      func(b []byte, tag byte, v *T) []byte
	dec      func(v *T, u uint64, b []byte) error
}

// encode appends the fields of v in tag order.
func encode[T any](b []byte, table []field[T], v *T) []byte {
	for id := range table {
		if f := &table[id]; f.enc != nil {
			b = f.enc(b, byte(id<<1|f.wire), v)
		}
	}
	return b
}

// decode sets the fields of v from the header encoding b; what names the
// table in errors.
func decode[T any](what string, table []field[T], b []byte, v *T) error {
	for len(b) > 0 {
		id, wire := int(b[0]>>1), int(b[0]&1)
		var f *field[T]
		if id < len(table) && table[id].dec != nil {
			f = &table[id]
		}
		if f != nil && f.wire != wire {
			return fmt.Errorf("protocol: decoding %s field %d: %s sent as %s, want %s",
				what, id, f.name, wireNames[wire], wireNames[f.wire])
		}
		var u uint64
		var val []byte
		var err error
		if wire == wireVarint {
			u, b, err = uvarint(b[1:])
		} else {
			val, b, err = lenBytes(b[1:])
		}
		if err == nil && f != nil {
			err = f.dec(v, u, val)
		}
		if err != nil {
			return fmt.Errorf("protocol: decoding %s field %d: %w", what, id, err)
		}
	}
	return nil
}

// reserved marks a retired tag: decode skips it, and no field may take it.
func reserved[T any](was string) field[T] { return field[T]{name: was, reserved: true} }

// str is a string field.
func str[T any](name string, p func(*T) *string) field[T] {
	return field[T]{name: name, wire: wireBytes,
		enc: func(b []byte, tag byte, v *T) []byte {
			if x := *p(v); x != "" {
				b = appendLen(append(b, tag), x)
			}
			return b
		},
		dec: func(v *T, _ uint64, b []byte) error { *p(v) = string(b); return nil }}
}

// raw is a []byte field; it decodes to a copy, nil when empty.
func raw[T any](name string, p func(*T) *[]byte) field[T] {
	return field[T]{name: name, wire: wireBytes,
		enc: func(b []byte, tag byte, v *T) []byte {
			if x := *p(v); len(x) != 0 {
				b = appendLen(append(b, tag), x)
			}
			return b
		},
		dec: func(v *T, _ uint64, b []byte) error { *p(v) = append([]byte(nil), b...); return nil }}
}

// varint is an integer field, zigzag-encoded.
func varint[T any, I ~int | ~int64](name string, p func(*T) *I) field[T] {
	return field[T]{name: name, wire: wireVarint,
		enc: func(b []byte, tag byte, v *T) []byte {
			if x := *p(v); x != 0 {
				b = binary.AppendUvarint(append(b, tag), zigzag(int64(x)))
			}
			return b
		},
		dec: func(v *T, u uint64, _ []byte) error { *p(v) = I(unzigzag(u)); return nil }}
}

// flag is a bool field, sent as the varint 1 when set.
func flag[T any](name string, p func(*T) *bool) field[T] {
	return field[T]{name: name, wire: wireVarint,
		enc: func(b []byte, tag byte, v *T) []byte {
			if *p(v) {
				b = binary.AppendUvarint(append(b, tag), zigzag(1))
			}
			return b
		},
		dec: func(v *T, u uint64, _ []byte) error { *p(v) = u != 0; return nil }}
}

// float is a float64 field, sent as the uvarint of its IEEE 754 bits. A
// non-finite value is rejected at decode: the field is outside input.
func float[T any](name string, p func(*T) *float64) field[T] {
	return field[T]{name: name, wire: wireVarint,
		enc: func(b []byte, tag byte, v *T) []byte {
			if x := *p(v); x != 0 {
				b = binary.AppendUvarint(append(b, tag), math.Float64bits(x))
			}
			return b
		},
		dec: func(v *T, u uint64, _ []byte) error {
			x := math.Float64frombits(u)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("protocol: %s is %v, want a finite number", name, x)
			}
			*p(v) = x
			return nil
		}}
}

// nested is a bytes field holding an inner encoding. put appends the
// encoding of a value and reports false, having written nothing, for a
// value the encoder omits; get reads an encoding back. The inner encoding
// is written straight into the output and its tag and length inserted in
// front of it.
func nested[T, V any](name string, p func(*T) *V, put func([]byte, V) ([]byte, bool), get func([]byte) (V, error)) field[T] {
	return field[T]{name: name, wire: wireBytes,
		enc: func(b []byte, tag byte, v *T) []byte {
			start := len(b)
			b, ok := put(b, *p(v))
			if !ok {
				return b
			}
			var head [1 + binary.MaxVarintLen64]byte
			return slices.Insert(b, start, binary.AppendUvarint(append(head[:0], tag), uint64(len(b)-start))...)
		},
		dec: func(v *T, _ uint64, b []byte) (err error) { *p(v), err = get(b); return err }}
}

// ---- primitives ----

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendLen appends v behind its uvarint length.
func appendLen[S ~string | ~[]byte](b []byte, v S) []byte {
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

// uvarint reads a uvarint off the front of b and returns the rest.
func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("protocol: truncated varint")
	}
	return v, b[n:], nil
}

// lenBytes reads a uvarint-length-prefixed value off the front of b and
// returns the rest.
func lenBytes(b []byte) ([]byte, []byte, error) {
	n, b, err := uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("protocol: length %d exceeds remaining header", n)
	}
	return b[:n], b[n:], nil
}

func getStr(b []byte) (string, []byte, error) {
	v, b, err := lenBytes(b)
	return string(v), b, err
}

// ---- nested values ----

func putSpec(b []byte, s *taskspec.Spec) ([]byte, bool) {
	// A spec that encodes to nothing still marks presence with an empty
	// nested field, so decode restores a non-nil *Spec.
	if s == nil {
		return b, false
	}
	return encode(b, specTable[:], s), true
}

func getSpec(b []byte) (*taskspec.Spec, error) {
	s := &taskspec.Spec{}
	if err := decode("spec", specTable[:], b, s); err != nil {
		return nil, err
	}
	return s, nil
}

func putResources(b []byte, r resources.R) ([]byte, bool) {
	if r.IsZero() {
		return b, false
	}
	for _, x := range [...]int64{int64(r.Cores), r.Memory, r.Disk, int64(r.GPUs)} {
		b = binary.AppendUvarint(b, zigzag(x))
	}
	return b, true
}

func getResources(b []byte) (resources.R, error) {
	var x [4]int64
	for i := range x {
		u, rest, err := uvarint(b)
		if err != nil {
			return resources.R{}, err
		}
		x[i], b = unzigzag(u), rest
	}
	return resources.R{Cores: int(x[0]), Memory: x[1], Disk: x[2], GPUs: int(x[3])}, nil
}

func putCapacity(b []byte, r *resources.R) ([]byte, bool) {
	if r == nil {
		return b, false
	}
	return putResources(b, *r)
}

// getCapacity decodes a zero capacity as nil, the value the encoder omits
// it for, so a worker's capacity does not depend on which of the two
// encodings it sent.
func getCapacity(b []byte) (*resources.R, error) {
	r, err := getResources(b)
	if err != nil || r.IsZero() {
		return nil, err
	}
	return &r, nil
}

// putList appends a count-prefixed list, omitted when empty.
func putList[E any](b []byte, list []E, each func([]byte, E) []byte) ([]byte, bool) {
	if len(list) == 0 {
		return b, false
	}
	b = binary.AppendUvarint(b, uint64(len(list)))
	for _, e := range list {
		b = each(b, e)
	}
	return b, true
}

// getList reads a count-prefixed list; an empty one is nil, as the
// encoder omits it.
func getList[E any](b []byte, each func([]byte) (E, []byte, error)) ([]E, error) {
	n, b, err := uvarint(b)
	if err != nil || n == 0 {
		return nil, err
	}
	// Every entry takes at least one byte.
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("protocol: list count %d exceeds encoding", n)
	}
	out := make([]E, n)
	for i := range out {
		if out[i], b, err = each(b); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func putOutputs(b []byte, outs []OutputInfo) ([]byte, bool) {
	return putList(b, outs, func(b []byte, o OutputInfo) []byte {
		return binary.AppendUvarint(appendLen(b, o.CacheName), zigzag(o.Size))
	})
}

func getOutputs(b []byte) ([]OutputInfo, error) {
	return getList(b, func(b []byte) (OutputInfo, []byte, error) {
		name, b, err := getStr(b)
		if err != nil {
			return OutputInfo{}, nil, err
		}
		size, b, err := uvarint(b)
		return OutputInfo{CacheName: name, Size: unzigzag(size)}, b, err
	})
}

func putMounts(b []byte, mounts []taskspec.Mount) ([]byte, bool) {
	return putList(b, mounts, func(b []byte, mt taskspec.Mount) []byte {
		return appendLen(appendLen(b, mt.FileID), mt.Name)
	})
}

func getMounts(b []byte) ([]taskspec.Mount, error) {
	return getList(b, func(b []byte) (taskspec.Mount, []byte, error) {
		pair, b, err := getPair(b)
		return taskspec.Mount{FileID: pair[0], Name: pair[1]}, b, err
	})
}

// putEnv writes the environment as a list of key/value pairs in key order.
func putEnv(b []byte, env map[string]string) ([]byte, bool) {
	if len(env) == 0 {
		return b, false
	}
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return putList(b, keys, func(b []byte, k string) []byte {
		return appendLen(appendLen(b, k), env[k])
	})
}

func getEnv(b []byte) (map[string]string, error) {
	pairs, err := getList(b, getPair)
	if len(pairs) == 0 {
		return nil, err
	}
	env := make(map[string]string, len(pairs))
	for _, kv := range pairs {
		env[kv[0]] = kv[1]
	}
	return env, nil
}

func getPair(b []byte) ([2]string, []byte, error) {
	var pair [2]string
	for i := range pair {
		s, rest, err := getStr(b)
		if err != nil {
			return pair, nil, err
		}
		pair[i], b = s, rest
	}
	return pair, b, nil
}
