package eisvc

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
)

// The binary wire protocol. JSON (wire.go) is the debug path: every
// payload a daemon serves is also readable with curl. The hot path —
// eval, evalbatch, cachelookup, and the cache snapshot files — has a
// second, length-prefixed binary encoding that round-trips float64 bit
// patterns exactly (math.Float64bits, so NaN payloads, ±Inf, and
// negative zero survive) and costs a near-memcpy to encode or decode
// instead of a float-to-decimal conversion per sample point.
//
// Framing: every message starts with the 4-byte magic "EIB" + format
// version, then one kind byte, then the kind's payload. Integers are
// little-endian fixed-width; strings and vectors are length-prefixed
// with a uint32. Record fields and fixed-ECV maps encode in sorted key
// order, so identical requests encode to identical bytes: the fleet
// router's placement and the daemon's memo key are both computed from
// the frame bytes (see frame.go).
//
// Negotiation: a client that sets Client.Binary sends its request body
// as BinaryContentType and offers the same in Accept; the server decodes
// by Content-Type and answers binary only when Accept asks for it.
// Errors are always JSON (ErrorResponse) — the debug path must stay
// readable exactly when something went wrong.

// BinaryContentType is the negotiated media type of the binary codec.
const BinaryContentType = "application/x-eisvc-bin"

// binVersion is the codec format version carried in the magic header.
// Bump it on any layout change; decoders reject other versions.
const binVersion = 1

// snapshotVersion is the cache-snapshot format version, carried in a
// snapshot file's magic header in place of binVersion. It moves whenever
// the meaning of the persisted keys changes: version 2 holds memo keys
// derived from request frames and layer keys with length-prefixed record
// field names, so a version-1 file (whose keys could never hit again) is
// rejected and the node starts cold.
const snapshotVersion = 2

// binMagic prefixes every binary message; snapshot files swap its last
// byte for snapshotVersion.
var binMagic = [4]byte{'E', 'I', 'B', binVersion}

// frameVersion is the format version a frame of the given kind carries.
func frameVersion(kind byte) byte {
	if kind == kindSnapshot {
		return snapshotVersion
	}
	return binVersion
}

// Message kind bytes (the fifth byte of every frame).
const (
	kindEvalRequest byte = iota + 1
	kindEvalResponse
	kindBatchRequest
	kindBatchResponse
	kindCacheLookupRequest
	kindCacheLookupResponse
	kindSnapshot
	kindOptimizeRequest
	kindOptimizeResponse
)

// IsBinaryContentType reports whether a Content-Type (or Accept) header
// value names the binary codec, ignoring any media-type parameters.
func IsBinaryContentType(v string) bool {
	if i := bytes.IndexByte([]byte(v), ';'); i >= 0 {
		v = v[:i]
	}
	return v == BinaryContentType
}

// --- pooled buffers ---

// bufPool recycles the scratch buffers behind every encode and every
// response read, client- and server-side. Returning a buffer is safe
// only after nothing aliases its bytes; both wire paths decode (copying
// what they keep) before release.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps what goes back in the pool: a one-off giant batch
// must not pin megabytes forever.
const maxPooledBuf = 1 << 20

// GetBuffer takes an empty scratch buffer from the codec pool.
func GetBuffer() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

// PutBuffer resets and returns a buffer to the pool.
func PutBuffer(b *bytes.Buffer) {
	if b == nil || b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// --- encoder ---

// benc appends the wire primitives to a bytes.Buffer. The scratch array
// keeps every fixed-width write allocation-free.
type benc struct {
	buf     *bytes.Buffer
	scratch [8]byte
}

func (e *benc) u8(v byte) { e.buf.WriteByte(v) }

func (e *benc) u32(v uint32) {
	s := e.scratch[:4]
	s[0], s[1], s[2], s[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	e.buf.Write(s)
}

func (e *benc) u64(v uint64) {
	s := e.scratch[:8]
	for i := 0; i < 8; i++ {
		s[i] = byte(v >> (8 * i))
	}
	e.buf.Write(s)
}

func (e *benc) i64(v int64)   { e.u64(uint64(v)) }
func (e *benc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *benc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf.WriteString(s)
}

func (e *benc) floats(xs []float64) {
	e.u32(uint32(len(xs)))
	for _, x := range xs {
		e.f64(x)
	}
}

func (e *benc) header(kind byte) {
	e.buf.Write(binMagic[:3])
	e.u8(frameVersion(kind))
	e.u8(kind)
}

// Value tag bytes for the plain JSON data model.
const (
	tagNil byte = iota
	tagFalse
	tagTrue
	tagNum
	tagStr
	tagList
	tagRecord
)

// value encodes one JSON-model value (what EvalRequest.Args and .Fixed
// hold after either a JSON decode or a binary decode). Record keys are
// written in sorted order so the encoding is deterministic.
func (e *benc) value(v any) error {
	switch x := v.(type) {
	case nil:
		e.u8(tagNil)
	case bool:
		if x {
			e.u8(tagTrue)
		} else {
			e.u8(tagFalse)
		}
	case float64:
		e.u8(tagNum)
		e.f64(x)
	case int:
		e.u8(tagNum)
		e.f64(float64(x))
	case string:
		e.u8(tagStr)
		e.str(x)
	case []any:
		e.u8(tagList)
		e.u32(uint32(len(x)))
		for _, item := range x {
			if err := e.value(item); err != nil {
				return err
			}
		}
	case map[string]any:
		e.u8(tagRecord)
		e.u32(uint32(len(x)))
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e.str(k)
			if err := e.value(x[k]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("eisvc: binary codec: unsupported value of type %T", v)
	}
	return nil
}

// --- decoder ---

// bdec walks a binary frame. The first malformed read latches err;
// every later read is a cheap no-op returning zeroes, so decode methods
// read straight through and check err once. Truncated input is always
// an error, never a panic — the decoders face network bytes.
type bdec struct {
	data []byte
	off  int
	err  error
}

func (d *bdec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("eisvc: binary codec: "+format, args...)
	}
}

func (d *bdec) remaining() int { return len(d.data) - d.off }

func (d *bdec) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

func (d *bdec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 4 {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	b := d.data[d.off:]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (d *bdec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	var v uint64
	b := d.data[d.off:]
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	d.off += 8
	return v
}

func (d *bdec) i64() int64   { return int64(d.u64()) }
func (d *bdec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a uint32 length prefix and sanity-checks it against the
// bytes actually remaining (each counted element costs at least min
// bytes), so a corrupted length cannot drive a huge allocation.
func (d *bdec) count(min int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if min > 0 && n > d.remaining()/min {
		d.fail("count %d exceeds remaining input", n)
		return 0
	}
	return n
}

func (d *bdec) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.data[d.off : d.off+n]) // copies; frame buffer is pooled
	d.off += n
	return s
}

func (d *bdec) floats() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

// maxValueDepth bounds value nesting so hostile input cannot overflow
// the stack through recursive lists/records.
const maxValueDepth = 64

func (d *bdec) value(depth int) any {
	if d.err != nil {
		return nil
	}
	if depth > maxValueDepth {
		d.fail("value nesting exceeds %d", maxValueDepth)
		return nil
	}
	switch tag := d.u8(); tag {
	case tagNil:
		return nil
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagNum:
		return d.f64()
	case tagStr:
		return d.str()
	case tagList:
		n := d.count(1)
		if d.err != nil || n == 0 {
			return []any(nil)
		}
		out := make([]any, n)
		for i := range out {
			out[i] = d.value(depth + 1)
		}
		return out
	case tagRecord:
		n := d.count(2)
		if d.err != nil {
			return nil
		}
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k := d.str()
			out[k] = d.value(depth + 1)
		}
		return out
	default:
		d.fail("unknown value tag %d", tag)
		return nil
	}
}

// header consumes and validates the frame magic and kind byte.
func (d *bdec) header(kind byte) {
	if d.remaining() < len(binMagic)+1 {
		d.fail("truncated header")
		return
	}
	if !bytes.Equal(d.data[d.off:d.off+3], binMagic[:3]) {
		d.fail("bad magic")
		return
	}
	if v, want := d.data[d.off+3], frameVersion(kind); v != want {
		d.fail("unsupported format version %d (want %d)", v, want)
		return
	}
	d.off += 4
	if got := d.u8(); d.err == nil && got != kind {
		d.fail("unexpected message kind %d (want %d)", got, kind)
	}
}

// done errors unless the frame was consumed exactly.
func (d *bdec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.remaining() != 0 {
		return fmt.Errorf("eisvc: binary codec: %d trailing byte(s)", d.remaining())
	}
	return nil
}

// --- wire payloads ---

// wireDist encodes the full WireDist: the exact vectors plus the derived
// summary stats, so a binary client never recomputes quantiles.
func (e *benc) wireDist(w *WireDist) {
	e.floats(w.Support)
	e.floats(w.Probs)
	e.f64(w.Mean)
	e.f64(w.Std)
	e.f64(w.Min)
	e.f64(w.Max)
	e.f64(w.P99)
}

func (d *bdec) wireDist() WireDist {
	var w WireDist
	w.Support = d.floats()
	w.Probs = d.floats()
	w.Mean = d.f64()
	w.Std = d.f64()
	w.Min = d.f64()
	w.Max = d.f64()
	w.P99 = d.f64()
	return w
}

// evalRequestBody encodes the request payload without the frame header,
// shared by the single and batch encodings. The arguments and pinned ECVs
// come last, so one byte range (EvalFrame.Canon) holds all of them.
func (e *benc) evalRequestBody(req *EvalRequest) error {
	e.str(req.Interface)
	e.str(req.Method)
	e.str(req.Mode)
	e.i64(int64(req.Samples))
	e.i64(req.Seed)
	e.i64(int64(req.EnumLimit))
	e.i64(int64(req.Parallelism))
	e.i64(int64(req.DeadlineMs))
	e.u32(uint32(len(req.Args)))
	for _, a := range req.Args {
		if err := e.value(a); err != nil {
			return err
		}
	}
	e.u32(uint32(len(req.Fixed)))
	if len(req.Fixed) > 0 {
		keys := make([]string, 0, len(req.Fixed))
		for k := range req.Fixed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e.str(k)
			if err := e.value(req.Fixed[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *bdec) evalRequestBody() EvalRequest {
	var req EvalRequest
	req.Interface = d.str()
	req.Method = d.str()
	req.Mode = d.str()
	req.Samples = int(d.i64())
	req.Seed = d.i64()
	req.EnumLimit = int(d.i64())
	req.Parallelism = int(d.i64())
	req.DeadlineMs = int(d.i64())
	if n := d.count(1); d.err == nil && n > 0 {
		req.Args = make([]any, n)
		for i := range req.Args {
			req.Args[i] = d.value(0)
		}
	}
	if n := d.count(2); d.err == nil && n > 0 {
		req.Fixed = make(map[string]any, n)
		for i := 0; i < n; i++ {
			k := d.str()
			req.Fixed[k] = d.value(0)
		}
	}
	return req
}

// EncodeEvalRequest appends the binary frame for req to buf.
func EncodeEvalRequest(buf *bytes.Buffer, req *EvalRequest) error {
	e := &benc{buf: buf}
	e.header(kindEvalRequest)
	return e.evalRequestBody(req)
}

// DecodeEvalRequest parses a binary eval-request frame.
func DecodeEvalRequest(data []byte) (*EvalRequest, error) {
	d := &bdec{data: data}
	d.header(kindEvalRequest)
	req := d.evalRequestBody()
	if err := d.done(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Response flag bits.
const (
	flagCached byte = 1 << iota
	flagCoalesced
	flagPeer
	flagDeduped
	flagHasDist
)

// EncodeEvalResponse appends the binary frame for resp to buf.
func EncodeEvalResponse(buf *bytes.Buffer, resp *EvalResponse) error {
	e := &benc{buf: buf}
	e.header(kindEvalResponse)
	e.str(resp.Interface)
	e.u64(resp.Version)
	e.str(resp.Method)
	e.str(resp.Mode)
	e.str(resp.Node)
	var flags byte
	if resp.Cached {
		flags |= flagCached
	}
	if resp.Coalesced {
		flags |= flagCoalesced
	}
	if resp.Peer {
		flags |= flagPeer
	}
	e.u8(flags)
	e.wireDist(&resp.Dist)
	return nil
}

// DecodeEvalResponse parses a binary eval-response frame.
func DecodeEvalResponse(data []byte) (*EvalResponse, error) {
	d := &bdec{data: data}
	d.header(kindEvalResponse)
	var resp EvalResponse
	resp.Interface = d.str()
	resp.Version = d.u64()
	resp.Method = d.str()
	resp.Mode = d.str()
	resp.Node = d.str()
	flags := d.u8()
	resp.Cached = flags&flagCached != 0
	resp.Coalesced = flags&flagCoalesced != 0
	resp.Peer = flags&flagPeer != 0
	resp.Dist = d.wireDist()
	if err := d.done(); err != nil {
		return nil, err
	}
	return &resp, nil
}

// EncodeBatchEvalRequest appends the binary frame for req to buf.
func EncodeBatchEvalRequest(buf *bytes.Buffer, req *BatchEvalRequest) error {
	e := &benc{buf: buf}
	e.header(kindBatchRequest)
	e.u32(uint32(len(req.Requests)))
	for i := range req.Requests {
		if err := e.evalRequestBody(&req.Requests[i]); err != nil {
			return err
		}
	}
	return nil
}

// DecodeBatchEvalRequest parses a binary batch-request frame.
func DecodeBatchEvalRequest(data []byte) (*BatchEvalRequest, error) {
	d := &bdec{data: data}
	d.header(kindBatchRequest)
	var req BatchEvalRequest
	// Each item costs at least the 8 fixed i64/str-length fields.
	if n := d.count(8); d.err == nil && n > 0 {
		req.Requests = make([]EvalRequest, n)
		for i := range req.Requests {
			req.Requests[i] = d.evalRequestBody()
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &req, nil
}

func (e *benc) batchItem(it *BatchEvalItem) {
	e.str(it.Interface)
	e.u64(it.Version)
	e.str(it.Method)
	e.str(it.Mode)
	e.u32(uint32(it.Status))
	e.str(it.Error)
	var flags byte
	if it.Cached {
		flags |= flagCached
	}
	if it.Coalesced {
		flags |= flagCoalesced
	}
	if it.Peer {
		flags |= flagPeer
	}
	if it.Deduped {
		flags |= flagDeduped
	}
	if it.Dist != nil {
		flags |= flagHasDist
	}
	e.u8(flags)
	if it.Dist != nil {
		e.wireDist(it.Dist)
	}
}

func (d *bdec) batchItem() BatchEvalItem {
	var it BatchEvalItem
	it.Interface = d.str()
	it.Version = d.u64()
	it.Method = d.str()
	it.Mode = d.str()
	it.Status = int(d.u32())
	it.Error = d.str()
	flags := d.u8()
	it.Cached = flags&flagCached != 0
	it.Coalesced = flags&flagCoalesced != 0
	it.Peer = flags&flagPeer != 0
	it.Deduped = flags&flagDeduped != 0
	if flags&flagHasDist != 0 {
		w := d.wireDist()
		it.Dist = &w
	}
	return it
}

// EncodeBatchEvalResponse appends the binary frame for resp to buf.
func EncodeBatchEvalResponse(buf *bytes.Buffer, resp *BatchEvalResponse) error {
	e := &benc{buf: buf}
	e.header(kindBatchResponse)
	e.u32(uint32(len(resp.Results)))
	for i := range resp.Results {
		e.batchItem(&resp.Results[i])
	}
	return nil
}

// DecodeBatchEvalResponse parses a binary batch-response frame.
func DecodeBatchEvalResponse(data []byte) (*BatchEvalResponse, error) {
	d := &bdec{data: data}
	d.header(kindBatchResponse)
	var resp BatchEvalResponse
	if n := d.count(8); d.err == nil && n > 0 {
		resp.Results = make([]BatchEvalItem, n)
		for i := range resp.Results {
			resp.Results[i] = d.batchItem()
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &resp, nil
}

// EncodeCacheLookupRequest appends the binary frame for req to buf.
func EncodeCacheLookupRequest(buf *bytes.Buffer, req *CacheLookupRequest) error {
	e := &benc{buf: buf}
	e.header(kindCacheLookupRequest)
	e.str(req.Key)
	return nil
}

// DecodeCacheLookupRequest parses a binary cache-probe frame.
func DecodeCacheLookupRequest(data []byte) (*CacheLookupRequest, error) {
	d := &bdec{data: data}
	d.header(kindCacheLookupRequest)
	req := CacheLookupRequest{Key: d.str()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeCacheLookupResponse appends the binary frame for resp to buf.
func EncodeCacheLookupResponse(buf *bytes.Buffer, resp *CacheLookupResponse) error {
	e := &benc{buf: buf}
	e.header(kindCacheLookupResponse)
	e.str(resp.Key)
	e.str(resp.Node)
	var flags byte
	if resp.Found {
		flags |= flagCached
	}
	if resp.Dist != nil {
		flags |= flagHasDist
	}
	e.u8(flags)
	if resp.Dist != nil {
		e.wireDist(resp.Dist)
	}
	return nil
}

// DecodeCacheLookupResponse parses a binary cache-probe answer.
func DecodeCacheLookupResponse(data []byte) (*CacheLookupResponse, error) {
	d := &bdec{data: data}
	d.header(kindCacheLookupResponse)
	var resp CacheLookupResponse
	resp.Key = d.str()
	resp.Node = d.str()
	flags := d.u8()
	resp.Found = flags&flagCached != 0
	if flags&flagHasDist != 0 {
		w := d.wireDist()
		resp.Dist = &w
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &resp, nil
}

// --- optimize payloads ---

func (e *benc) optimizeKnobs(knobs []OptimizeKnob) {
	e.u32(uint32(len(knobs)))
	for i := range knobs {
		e.str(knobs[i].Name)
		e.floats(knobs[i].Values)
	}
}

func (d *bdec) optimizeKnobs() []OptimizeKnob {
	// Each knob costs at least its two length prefixes.
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]OptimizeKnob, n)
	for i := range out {
		out[i].Name = d.str()
		out[i].Values = d.floats()
	}
	return out
}

func (e *benc) optimizePoint(p *OptimizePoint) {
	e.floats(p.Knobs)
	e.f64(p.EnergyJ)
	e.f64(p.LatencyMs)
}

func (d *bdec) optimizePoint() OptimizePoint {
	var p OptimizePoint
	p.Knobs = d.floats()
	p.EnergyJ = d.f64()
	p.LatencyMs = d.f64()
	return p
}

// EncodeOptimizeRequest appends the binary frame for req to buf. The
// interface name comes first so the fleet router can route the frame
// after decoding only a short prefix (BinaryOptimizeInterface).
func EncodeOptimizeRequest(buf *bytes.Buffer, req *OptimizeRequest) error {
	e := &benc{buf: buf}
	e.header(kindOptimizeRequest)
	e.str(req.Interface)
	e.str(req.EnergyMethod)
	e.str(req.LatencyMethod)
	e.str(req.Mode)
	e.f64(req.SLOMs)
	e.i64(int64(req.Samples))
	e.i64(req.Seed)
	e.i64(int64(req.EnumLimit))
	e.i64(int64(req.Parallelism))
	e.i64(int64(req.MaxConfigs))
	e.i64(int64(req.DeadlineMs))
	e.optimizeKnobs(req.Knobs)
	return nil
}

// DecodeOptimizeRequest parses a binary optimize-request frame.
func DecodeOptimizeRequest(data []byte) (*OptimizeRequest, error) {
	d := &bdec{data: data}
	d.header(kindOptimizeRequest)
	var req OptimizeRequest
	req.Interface = d.str()
	req.EnergyMethod = d.str()
	req.LatencyMethod = d.str()
	req.Mode = d.str()
	req.SLOMs = d.f64()
	req.Samples = int(d.i64())
	req.Seed = d.i64()
	req.EnumLimit = int(d.i64())
	req.Parallelism = int(d.i64())
	req.MaxConfigs = int(d.i64())
	req.DeadlineMs = int(d.i64())
	req.Knobs = d.optimizeKnobs()
	if err := d.done(); err != nil {
		return nil, err
	}
	return &req, nil
}

// BinaryOptimizeInterface peeks the interface name out of a binary
// optimize-request frame without decoding the rest — the fleet router's
// routing key for verbatim passthrough.
func BinaryOptimizeInterface(data []byte) (string, bool) {
	d := &bdec{data: data}
	d.header(kindOptimizeRequest)
	name := d.str()
	if d.err != nil {
		return "", false
	}
	return name, true
}

// Optimize-response flag bits (which optional points are present).
const (
	optFlagRecommended byte = 1 << iota
	optFlagMaxPerf
)

// EncodeOptimizeResponse appends the binary frame for resp to buf.
func EncodeOptimizeResponse(buf *bytes.Buffer, resp *OptimizeResponse) error {
	e := &benc{buf: buf}
	e.header(kindOptimizeResponse)
	e.str(resp.Interface)
	e.u64(resp.Version)
	e.str(resp.Mode)
	e.str(resp.Node)
	e.f64(resp.SLOMs)
	e.i64(int64(resp.Configs))
	e.i64(int64(resp.Evaluated))
	e.i64(int64(resp.Skipped))
	e.i64(int64(resp.Evals))
	e.i64(int64(resp.MemoServed))
	e.u64(resp.Digest)
	e.f64(resp.SavingsFrac)
	e.optimizeKnobs(resp.Knobs)
	e.u32(uint32(len(resp.Frontier)))
	for i := range resp.Frontier {
		e.optimizePoint(&resp.Frontier[i])
	}
	var flags byte
	if resp.Recommended != nil {
		flags |= optFlagRecommended
	}
	if resp.MaxPerf != nil {
		flags |= optFlagMaxPerf
	}
	e.u8(flags)
	if resp.Recommended != nil {
		e.optimizePoint(resp.Recommended)
	}
	if resp.MaxPerf != nil {
		e.optimizePoint(resp.MaxPerf)
	}
	return nil
}

// DecodeOptimizeResponse parses a binary optimize-response frame.
func DecodeOptimizeResponse(data []byte) (*OptimizeResponse, error) {
	d := &bdec{data: data}
	d.header(kindOptimizeResponse)
	var resp OptimizeResponse
	resp.Interface = d.str()
	resp.Version = d.u64()
	resp.Mode = d.str()
	resp.Node = d.str()
	resp.SLOMs = d.f64()
	resp.Configs = int(d.i64())
	resp.Evaluated = int(d.i64())
	resp.Skipped = int(d.i64())
	resp.Evals = int(d.i64())
	resp.MemoServed = int(d.i64())
	resp.Digest = d.u64()
	resp.SavingsFrac = d.f64()
	resp.Knobs = d.optimizeKnobs()
	// Each frontier point costs at least its knob-vector length prefix
	// plus the two objectives.
	if n := d.count(20); d.err == nil && n > 0 {
		resp.Frontier = make([]OptimizePoint, n)
		for i := range resp.Frontier {
			resp.Frontier[i] = d.optimizePoint()
		}
	}
	flags := d.u8()
	if flags&optFlagRecommended != 0 {
		p := d.optimizePoint()
		resp.Recommended = &p
	}
	if flags&optFlagMaxPerf != 0 {
		p := d.optimizePoint()
		resp.MaxPerf = &p
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &resp, nil
}
