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
package protocol

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
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

// Message field IDs for the binary header encoding. Order is wire
// compatibility: never renumber, only append.
const (
	fType           = 1
	fWorkerID       = 2
	fTransferAddr   = 3
	fCapacity       = 4
	fTaskID         = 5
	fSpec           = 6
	fExitCode       = 7
	fResult         = 8
	fOutputs        = 9
	fTimeStagedMS   = 10
	fTimeRunMS      = 11
	fMeasuredDisk   = 12
	fMeasuredMemory = 13
	fCacheName      = 14
	fSize           = 15
	fDir            = 16
	fLifetime       = 17
	fURL            = 18
	fPeerAddr       = 19
	fTransferID     = 20
	fChecksum       = 21
	fStatus         = 22
	fError          = 23
	// Tag 24 is retired: reservedMessageTags.
	fOffset    = 25
	fTotal     = 26
	fPeerAddrs = 27
	fTier      = 28
)

// Spec field IDs (nested message, its own field space).
const (
	sID            = 1
	sKind          = 2
	sCommand       = 3
	sLibrary       = 4
	sFunction      = 5
	sArgs          = 6
	sInputs        = 7
	sOutputs       = 8
	sEnv           = 9
	sResources     = 10
	sMaxRetries    = 11
	sMaxRunSeconds = 12
	sCategory      = 13
	sArgsFrom      = 14
	sResident      = 15
	// Tags 16 and 17 are retired: reservedSpecTags.
)

// Retired tags: older peers may still send them, so the decoders skip them
// whatever their wire type, and no field may ever take them again.
var (
	// reservedMessageTags: 24 carried the framing-negotiation version.
	reservedMessageTags = []int{24}
	// reservedSpecTags: 16 and 17 carried routing labels.
	reservedSpecTags = []int{16, 17}
)

const (
	wireVarint = 0
	wireBytes  = 1
)

// fieldWire names a known header field and the wire type it travels as.
// The decoders reject a known field sent with the other wire type rather
// than read it as garbage; reserved tags and tags with no entry (from a
// newer peer) are skipped.
type fieldWire struct {
	name string
	wire int
}

var messageFields = [...]fieldWire{
	fType: {"Type", wireBytes}, fWorkerID: {"WorkerID", wireBytes}, fTransferAddr: {"TransferAddr", wireBytes},
	fCapacity: {"Capacity", wireBytes}, fTaskID: {"TaskID", wireVarint}, fSpec: {"Spec", wireBytes},
	fExitCode: {"ExitCode", wireVarint}, fResult: {"Result", wireBytes}, fOutputs: {"Outputs", wireBytes},
	fTimeStagedMS: {"TimeStagedMS", wireVarint}, fTimeRunMS: {"TimeRunMS", wireVarint},
	fMeasuredDisk: {"MeasuredDisk", wireVarint}, fMeasuredMemory: {"MeasuredMemory", wireVarint},
	fCacheName: {"CacheName", wireBytes}, fSize: {"Size", wireVarint}, fDir: {"Dir", wireVarint},
	fLifetime: {"Lifetime", wireVarint}, fURL: {"URL", wireBytes}, fPeerAddr: {"PeerAddr", wireBytes},
	fTransferID: {"TransferID", wireBytes}, fChecksum: {"Checksum", wireBytes}, fStatus: {"Status", wireBytes},
	fError: {"Error", wireBytes}, fOffset: {"Offset", wireVarint}, fTotal: {"Total", wireVarint},
	fPeerAddrs: {"PeerAddrs", wireBytes}, fTier: {"Tier", wireVarint},
}

var specFields = [...]fieldWire{
	sID: {"ID", wireVarint}, sKind: {"Kind", wireVarint}, sCommand: {"Command", wireBytes},
	sLibrary: {"Library", wireBytes}, sFunction: {"Function", wireBytes}, sArgs: {"Args", wireBytes},
	sInputs: {"Inputs", wireBytes}, sOutputs: {"Outputs", wireBytes}, sEnv: {"Env", wireBytes},
	sResources: {"Resources", wireBytes}, sMaxRetries: {"MaxRetries", wireVarint},
	sMaxRunSeconds: {"MaxRunSeconds", wireVarint}, sCategory: {"Category", wireBytes},
	sArgsFrom: {"ArgsFrom", wireBytes}, sResident: {"Resident", wireVarint},
}

func wireName(wire int) string {
	if wire == wireVarint {
		return "varint"
	}
	return "bytes"
}

// checkWire fails when field is known with a wire type other than wire.
func checkWire(fields []fieldWire, field, wire int) error {
	if field < len(fields) && fields[field].name != "" && fields[field].wire != wire {
		return fmt.Errorf("%s sent as %s, want %s", fields[field].name, wireName(wire), wireName(fields[field].wire))
	}
	return nil
}

// encBufPool recycles header encode/decode scratch. Buffers that grew past
// a frame-header-sized payload are dropped rather than pinned forever.
var encBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

func getEncBuf() *[]byte { return encBufPool.Get().(*[]byte) }
func putEncBuf(b *[]byte) {
	if cap(*b) <= 1<<20 {
		*b = (*b)[:0]
		encBufPool.Put(b)
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

// ---- primitive writers ----

func appendTag(b []byte, field, wire int) []byte {
	return append(b, byte(field<<1|wire))
}

func appendVarintField(b []byte, field int, v int64) []byte {
	if v == 0 {
		return b
	}
	b = appendTag(b, field, wireVarint)
	return binary.AppendUvarint(b, zigzag(v))
}

func appendBytesField(b []byte, field int, v []byte) []byte {
	if len(v) == 0 {
		return b
	}
	b = appendTag(b, field, wireBytes)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendStringField(b []byte, field int, v string) []byte {
	if v == "" {
		return b
	}
	b = appendTag(b, field, wireBytes)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ---- nested encoders ----

func appendResources(b []byte, field int, r resources.R) []byte {
	if r.IsZero() {
		return b
	}
	inner := getEncBuf()
	v := *inner
	v = binary.AppendUvarint(v, zigzag(int64(r.Cores)))
	v = binary.AppendUvarint(v, zigzag(r.Memory))
	v = binary.AppendUvarint(v, zigzag(r.Disk))
	v = binary.AppendUvarint(v, zigzag(int64(r.GPUs)))
	b = appendBytesField(b, field, v)
	*inner = v
	putEncBuf(inner)
	return b
}

func appendMounts(b []byte, field int, mounts []taskspec.Mount) []byte {
	if len(mounts) == 0 {
		return b
	}
	inner := getEncBuf()
	v := *inner
	v = binary.AppendUvarint(v, uint64(len(mounts)))
	for _, mt := range mounts {
		v = binary.AppendUvarint(v, uint64(len(mt.FileID)))
		v = append(v, mt.FileID...)
		v = binary.AppendUvarint(v, uint64(len(mt.Name)))
		v = append(v, mt.Name...)
	}
	b = appendBytesField(b, field, v)
	*inner = v
	putEncBuf(inner)
	return b
}

func appendOutputs(b []byte, field int, outs []OutputInfo) []byte {
	if len(outs) == 0 {
		return b
	}
	inner := getEncBuf()
	v := *inner
	v = binary.AppendUvarint(v, uint64(len(outs)))
	for _, o := range outs {
		v = binary.AppendUvarint(v, uint64(len(o.CacheName)))
		v = append(v, o.CacheName...)
		v = binary.AppendUvarint(v, zigzag(o.Size))
	}
	b = appendBytesField(b, field, v)
	*inner = v
	putEncBuf(inner)
	return b
}

func appendStrings(b []byte, field int, ss []string) []byte {
	if len(ss) == 0 {
		return b
	}
	inner := getEncBuf()
	v := *inner
	v = binary.AppendUvarint(v, uint64(len(ss)))
	for _, s := range ss {
		v = binary.AppendUvarint(v, uint64(len(s)))
		v = append(v, s...)
	}
	b = appendBytesField(b, field, v)
	*inner = v
	putEncBuf(inner)
	return b
}

func appendEnv(b []byte, field int, env map[string]string) []byte {
	if len(env) == 0 {
		return b
	}
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	inner := getEncBuf()
	v := *inner
	v = binary.AppendUvarint(v, uint64(len(keys)))
	for _, k := range keys {
		v = binary.AppendUvarint(v, uint64(len(k)))
		v = append(v, k...)
		val := env[k]
		v = binary.AppendUvarint(v, uint64(len(val)))
		v = append(v, val...)
	}
	b = appendBytesField(b, field, v)
	*inner = v
	putEncBuf(inner)
	return b
}

func appendSpec(b []byte, field int, s *taskspec.Spec) []byte {
	if s == nil {
		return b
	}
	inner := getEncBuf()
	v := *inner
	v = appendVarintField(v, sID, int64(s.ID))
	v = appendVarintField(v, sKind, int64(s.Kind))
	v = appendStringField(v, sCommand, s.Command)
	v = appendStringField(v, sLibrary, s.Library)
	v = appendStringField(v, sFunction, s.Function)
	v = appendBytesField(v, sArgs, s.Args)
	v = appendMounts(v, sInputs, s.Inputs)
	v = appendMounts(v, sOutputs, s.Outputs)
	v = appendEnv(v, sEnv, s.Env)
	v = appendResources(v, sResources, s.Resources)
	v = appendVarintField(v, sMaxRetries, int64(s.MaxRetries))
	if s.MaxRunSeconds != 0 {
		v = appendTag(v, sMaxRunSeconds, wireVarint)
		v = binary.AppendUvarint(v, math.Float64bits(s.MaxRunSeconds))
	}
	v = appendStringField(v, sCategory, s.Category)
	v = appendStringField(v, sArgsFrom, s.ArgsFrom)
	if s.Resident {
		v = appendVarintField(v, sResident, 1)
	}
	// A spec that encodes to nothing still marks presence with an empty
	// nested field, so decode restores a non-nil *Spec.
	b = appendTag(b, field, wireBytes)
	b = binary.AppendUvarint(b, uint64(len(v)))
	b = append(b, v...)
	*inner = v
	putEncBuf(inner)
	return b
}

// encodeMessage appends the binary header encoding of m to b.
func encodeMessage(b []byte, m *Message) []byte {
	b = appendStringField(b, fType, m.Type)
	b = appendStringField(b, fWorkerID, m.WorkerID)
	b = appendStringField(b, fTransferAddr, m.TransferAddr)
	if m.Capacity != nil {
		b = appendResources(b, fCapacity, *m.Capacity)
	}
	b = appendVarintField(b, fTaskID, int64(m.TaskID))
	b = appendSpec(b, fSpec, m.Spec)
	b = appendVarintField(b, fExitCode, int64(m.ExitCode))
	b = appendBytesField(b, fResult, m.Result)
	b = appendOutputs(b, fOutputs, m.Outputs)
	b = appendVarintField(b, fTimeStagedMS, m.TimeStagedMS)
	b = appendVarintField(b, fTimeRunMS, m.TimeRunMS)
	b = appendVarintField(b, fMeasuredDisk, m.MeasuredDisk)
	b = appendVarintField(b, fMeasuredMemory, m.MeasuredMemory)
	b = appendStringField(b, fCacheName, m.CacheName)
	b = appendVarintField(b, fSize, m.Size)
	if m.Dir {
		b = appendVarintField(b, fDir, 1)
	}
	b = appendVarintField(b, fLifetime, int64(m.Lifetime))
	b = appendStringField(b, fURL, m.URL)
	b = appendStringField(b, fPeerAddr, m.PeerAddr)
	b = appendStringField(b, fTransferID, m.TransferID)
	b = appendStringField(b, fChecksum, m.Checksum)
	b = appendStringField(b, fStatus, m.Status)
	b = appendStringField(b, fError, m.Error)
	b = appendVarintField(b, fOffset, m.Offset)
	b = appendVarintField(b, fTotal, m.Total)
	b = appendStrings(b, fPeerAddrs, m.PeerAddrs)
	b = appendVarintField(b, fTier, int64(m.Tier))
	return b
}

// ---- decoding ----

type decoder struct {
	b   []byte
	off int
}

func (d *decoder) done() bool { return d.off >= len(d.b) }

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("protocol: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	u, err := d.uvarint()
	return unzigzag(u), err
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("protocol: length %d exceeds remaining header", n)
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v, nil
}

func (d *decoder) str() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

// skip consumes one value of the given wire type (unknown fields from a
// newer peer).
func (d *decoder) skip(wire int) error {
	switch wire {
	case wireVarint:
		_, err := d.uvarint()
		return err
	case wireBytes:
		_, err := d.bytes()
		return err
	default:
		return fmt.Errorf("protocol: unknown wire type %d", wire)
	}
}

func decodeResources(b []byte) (resources.R, error) {
	d := &decoder{b: b}
	var r resources.R
	cores, err := d.varint()
	if err != nil {
		return r, err
	}
	mem, err := d.varint()
	if err != nil {
		return r, err
	}
	disk, err := d.varint()
	if err != nil {
		return r, err
	}
	gpus, err := d.varint()
	if err != nil {
		return r, err
	}
	return resources.R{Cores: int(cores), Memory: mem, Disk: disk, GPUs: int(gpus)}, nil
}

func decodeMounts(b []byte) ([]taskspec.Mount, error) {
	d := &decoder{b: b}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("protocol: mount count %d exceeds encoding", n)
	}
	out := make([]taskspec.Mount, 0, n)
	for i := uint64(0); i < n; i++ {
		fid, err := d.str()
		if err != nil {
			return nil, err
		}
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		out = append(out, taskspec.Mount{FileID: fid, Name: name})
	}
	return out, nil
}

func decodeOutputs(b []byte) ([]OutputInfo, error) {
	d := &decoder{b: b}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("protocol: output count %d exceeds encoding", n)
	}
	out := make([]OutputInfo, 0, n)
	for i := uint64(0); i < n; i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		size, err := d.varint()
		if err != nil {
			return nil, err
		}
		out = append(out, OutputInfo{CacheName: name, Size: size})
	}
	return out, nil
}

func decodeStrings(b []byte) ([]string, error) {
	d := &decoder{b: b}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("protocol: string count %d exceeds encoding", n)
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func decodeEnv(b []byte) (map[string]string, error) {
	d := &decoder{b: b}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("protocol: env count %d exceeds encoding", n)
	}
	out := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.str()
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

func decodeSpec(b []byte) (*taskspec.Spec, error) {
	d := &decoder{b: b}
	s := &taskspec.Spec{}
	for !d.done() {
		tag := d.b[d.off]
		d.off++
		field, wire := int(tag>>1), int(tag&1)
		if slices.Contains(reservedSpecTags, field) {
			if err := d.skip(wire); err != nil {
				return nil, fmt.Errorf("protocol: decoding spec field %d: %w", field, err)
			}
			continue
		}
		if err := checkWire(specFields[:], field, wire); err != nil {
			return nil, fmt.Errorf("protocol: decoding spec field %d: %w", field, err)
		}
		var err error
		switch field {
		case sID:
			var v int64
			v, err = d.varint()
			s.ID = int(v)
		case sKind:
			var v int64
			v, err = d.varint()
			s.Kind = taskspec.Kind(v)
		case sCommand:
			s.Command, err = d.str()
		case sLibrary:
			s.Library, err = d.str()
		case sFunction:
			s.Function, err = d.str()
		case sArgs:
			var v []byte
			v, err = d.bytes()
			s.Args = append([]byte(nil), v...)
		case sInputs:
			var v []byte
			if v, err = d.bytes(); err == nil {
				s.Inputs, err = decodeMounts(v)
			}
		case sOutputs:
			var v []byte
			if v, err = d.bytes(); err == nil {
				s.Outputs, err = decodeMounts(v)
			}
		case sEnv:
			var v []byte
			if v, err = d.bytes(); err == nil {
				s.Env, err = decodeEnv(v)
			}
		case sResources:
			var v []byte
			if v, err = d.bytes(); err == nil {
				s.Resources, err = decodeResources(v)
			}
		case sMaxRetries:
			var v int64
			v, err = d.varint()
			s.MaxRetries = int(v)
		case sMaxRunSeconds:
			var u uint64
			u, err = d.uvarint()
			s.MaxRunSeconds = math.Float64frombits(u)
		case sCategory:
			s.Category, err = d.str()
		case sArgsFrom:
			s.ArgsFrom, err = d.str()
		case sResident:
			var v int64
			v, err = d.varint()
			s.Resident = v != 0
		default:
			err = d.skip(wire)
		}
		if err != nil {
			return nil, fmt.Errorf("protocol: decoding spec field %d: %w", field, err)
		}
	}
	return s, nil
}

// decodeMessage parses a binary frame header into a Message.
func decodeMessage(b []byte) (*Message, error) {
	d := &decoder{b: b}
	m := &Message{}
	for !d.done() {
		tag := d.b[d.off]
		d.off++
		field, wire := int(tag>>1), int(tag&1)
		if slices.Contains(reservedMessageTags, field) {
			if err := d.skip(wire); err != nil {
				return nil, fmt.Errorf("protocol: decoding message field %d: %w", field, err)
			}
			continue
		}
		if err := checkWire(messageFields[:], field, wire); err != nil {
			return nil, fmt.Errorf("protocol: decoding message field %d: %w", field, err)
		}
		var err error
		switch field {
		case fType:
			m.Type, err = d.str()
		case fWorkerID:
			m.WorkerID, err = d.str()
		case fTransferAddr:
			m.TransferAddr, err = d.str()
		case fCapacity:
			var v []byte
			if v, err = d.bytes(); err == nil {
				var r resources.R
				if r, err = decodeResources(v); err == nil {
					m.Capacity = &r
				}
			}
		case fTaskID:
			var v int64
			v, err = d.varint()
			m.TaskID = int(v)
		case fSpec:
			var v []byte
			if v, err = d.bytes(); err == nil {
				m.Spec, err = decodeSpec(v)
			}
		case fExitCode:
			var v int64
			v, err = d.varint()
			m.ExitCode = int(v)
		case fResult:
			var v []byte
			v, err = d.bytes()
			m.Result = append([]byte(nil), v...)
		case fOutputs:
			var v []byte
			if v, err = d.bytes(); err == nil {
				m.Outputs, err = decodeOutputs(v)
			}
		case fTimeStagedMS:
			m.TimeStagedMS, err = d.varint()
		case fTimeRunMS:
			m.TimeRunMS, err = d.varint()
		case fMeasuredDisk:
			m.MeasuredDisk, err = d.varint()
		case fMeasuredMemory:
			m.MeasuredMemory, err = d.varint()
		case fCacheName:
			m.CacheName, err = d.str()
		case fSize:
			m.Size, err = d.varint()
		case fDir:
			var v int64
			v, err = d.varint()
			m.Dir = v != 0
		case fLifetime:
			var v int64
			v, err = d.varint()
			m.Lifetime = int(v)
		case fURL:
			m.URL, err = d.str()
		case fPeerAddr:
			m.PeerAddr, err = d.str()
		case fTransferID:
			m.TransferID, err = d.str()
		case fChecksum:
			m.Checksum, err = d.str()
		case fStatus:
			m.Status, err = d.str()
		case fError:
			m.Error, err = d.str()
		case fOffset:
			m.Offset, err = d.varint()
		case fTotal:
			m.Total, err = d.varint()
		case fPeerAddrs:
			var v []byte
			if v, err = d.bytes(); err == nil {
				m.PeerAddrs, err = decodeStrings(v)
			}
		case fTier:
			var v int64
			v, err = d.varint()
			m.Tier = int(v)
		default:
			err = d.skip(wire)
		}
		if err != nil {
			return nil, fmt.Errorf("protocol: decoding message field %d: %w", field, err)
		}
	}
	return m, nil
}
