package eisvc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strconv"

	"energyclarity/internal/core"
)

// Request identity. An eval request's binary frame is its identity: the
// codec writes the arguments and pinned ECVs canonically (tag bytes,
// u32-prefixed strings and field names, exact Float64bits, maps in sorted
// key order), so those bytes are an injective fingerprint of the values
// they encode. The router places a request and the node keys its memo
// from one zero-allocation scan of the frame; nothing is decoded into Go
// values until a singleflight leader actually evaluates. JSON bodies,
// batch items, and optimize configurations are framed once on arrival
// and go through the same functions, so every path agrees on placement
// and memo keys by construction.

// EvalFrame is one eval request seen through its binary frame, as the
// scanners find it. Every slice aliases the scanned buffer — nothing is
// copied — so a frame is valid only while that buffer is.
type EvalFrame struct {
	Interface, Method, Mode []byte

	Samples, Seed, EnumLimit, Parallelism, DeadlineMs int64

	// Canon is the arguments and the pinned ECVs exactly as framed, from
	// the argument count through the end of the fixed-ECV map.
	Canon []byte
	// Raw is the whole request body after the frame header; a batch
	// frame is an item count followed by its items' Raw bytes.
	Raw []byte
}

// bytesField reads a u32-prefixed string without copying it.
func (d *bdec) bytesField() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	b := d.data[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// skipValue validates one value exactly as value would decode it, and
// builds nothing.
func (d *bdec) skipValue(depth int) {
	if d.err != nil {
		return
	}
	if depth > maxValueDepth {
		d.fail("value nesting exceeds %d", maxValueDepth)
		return
	}
	switch tag := d.u8(); tag {
	case tagNil, tagFalse, tagTrue:
	case tagNum:
		d.u64()
	case tagStr:
		d.bytesField()
	case tagList:
		n := d.count(1)
		for i := 0; i < n && d.err == nil; i++ {
			d.skipValue(depth + 1)
		}
	case tagRecord:
		n := d.count(2)
		for i := 0; i < n && d.err == nil; i++ {
			d.bytesField()
			d.skipValue(depth + 1)
		}
	default:
		d.fail("unknown value tag %d", tag)
	}
}

// evalFrame is the skip-walk twin of evalRequestBody: it accepts exactly
// the bodies evalRequestBody decodes.
func (d *bdec) evalFrame() EvalFrame {
	start := d.off
	var f EvalFrame
	f.Interface = d.bytesField()
	f.Method = d.bytesField()
	f.Mode = d.bytesField()
	f.Samples = d.i64()
	f.Seed = d.i64()
	f.EnumLimit = d.i64()
	f.Parallelism = d.i64()
	f.DeadlineMs = d.i64()
	canon := d.off
	n := d.count(1)
	for i := 0; i < n && d.err == nil; i++ {
		d.skipValue(0)
	}
	n = d.count(2)
	for i := 0; i < n && d.err == nil; i++ {
		d.bytesField()
		d.skipValue(0)
	}
	if d.err == nil {
		f.Canon = d.data[canon:d.off:d.off]
		f.Raw = d.data[start:d.off:d.off]
	}
	return f
}

// ScanEvalRequest validates a binary eval-request frame and returns its
// view without allocating. It accepts exactly the frames
// DecodeEvalRequest accepts.
func ScanEvalRequest(data []byte) (EvalFrame, error) {
	d := bdec{data: data}
	d.header(kindEvalRequest)
	f := d.evalFrame()
	return f, d.done()
}

// ScanBatchEvalRequest validates a binary batch-request frame and returns
// one view per item. It accepts exactly the frames
// DecodeBatchEvalRequest accepts.
func ScanBatchEvalRequest(data []byte) ([]EvalFrame, error) {
	d := bdec{data: data}
	d.header(kindBatchRequest)
	var out []EvalFrame
	// Each item costs at least the 8 fixed i64/str-length fields.
	if n := d.count(8); d.err == nil && n > 0 {
		out = make([]EvalFrame, n)
		for i := range out {
			out[i] = d.evalFrame()
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// FrameEvalRequest encodes req into buf and scans it back: how a JSON body
// joins the frame path. The frame aliases buf.
func FrameEvalRequest(buf *bytes.Buffer, req *EvalRequest) (EvalFrame, error) {
	if err := EncodeEvalRequest(buf, req); err != nil {
		return EvalFrame{}, err
	}
	return ScanEvalRequest(buf.Bytes())
}

// FrameBatchEvalRequest is FrameEvalRequest for a whole batch.
func FrameBatchEvalRequest(buf *bytes.Buffer, req *BatchEvalRequest) ([]EvalFrame, error) {
	if err := EncodeBatchEvalRequest(buf, req); err != nil {
		return nil, err
	}
	return ScanBatchEvalRequest(buf.Bytes())
}

// EncodeBatchFrames appends a batch-request frame holding items' bytes
// verbatim: how a router splits a batch without re-encoding it.
func EncodeBatchFrames(buf *bytes.Buffer, items []EvalFrame) {
	e := &benc{buf: buf}
	e.header(kindBatchRequest)
	e.u32(uint32(len(items)))
	for i := range items {
		buf.Write(items[i].Raw)
	}
}

// coreValue encodes a core.Value exactly as value encodes its
// ValueToJSON form, without building that form.
func (e *benc) coreValue(v core.Value) {
	switch v.Kind() {
	case core.KindBool:
		if b, _ := v.AsBool(); b {
			e.u8(tagTrue)
		} else {
			e.u8(tagFalse)
		}
	case core.KindNum:
		n, _ := v.AsNum()
		e.u8(tagNum)
		e.f64(n)
	case core.KindStr:
		s, _ := v.AsStr()
		e.u8(tagStr)
		e.str(s)
	case core.KindList:
		e.u8(tagList)
		e.u32(uint32(v.Len()))
		for i := 0; i < v.Len(); i++ {
			item, _ := v.Index(i)
			e.coreValue(item)
		}
	case core.KindRecord:
		names := v.FieldNames()
		e.u8(tagRecord)
		e.u32(uint32(len(names)))
		for _, k := range names {
			f, _ := v.Field(k)
			e.str(k)
			e.coreValue(f)
		}
	default:
		e.u8(tagNil)
	}
}

// encodeEvalCall appends the eval-request frame Client.EvalRequestFor
// (plus deadlineMs) followed by EncodeEvalRequest would produce, straight
// from core values.
func encodeEvalCall(buf *bytes.Buffer, name, method string, args []core.Value, opts core.EvalOptions, deadlineMs int) {
	e := &benc{buf: buf}
	e.header(kindEvalRequest)
	e.str(name)
	e.str(method)
	e.str(opts.Mode.String())
	e.i64(int64(opts.Samples))
	e.i64(opts.Seed)
	e.i64(int64(opts.EnumLimit))
	e.i64(int64(opts.Parallelism))
	e.i64(int64(deadlineMs))
	e.u32(uint32(len(args)))
	for _, a := range args {
		e.coreValue(a)
	}
	e.u32(uint32(len(opts.Fixed)))
	if len(opts.Fixed) > 0 {
		names := make([]string, 0, len(opts.Fixed))
		for qn := range opts.Fixed {
			names = append(names, qn)
		}
		sort.Strings(names)
		for _, qn := range names {
			e.str(qn)
			e.coreValue(opts.Fixed[qn])
		}
	}
}

// coreValue decodes one value straight into a core.Value: the same
// result as ValueFromJSON over value's output.
func (d *bdec) coreValue(depth int) core.Value {
	if d.err != nil {
		return core.Nil()
	}
	if depth > maxValueDepth {
		d.fail("value nesting exceeds %d", maxValueDepth)
		return core.Nil()
	}
	switch tag := d.u8(); tag {
	case tagNil:
		return core.Nil()
	case tagFalse:
		return core.Bool(false)
	case tagTrue:
		return core.Bool(true)
	case tagNum:
		return core.Num(d.f64())
	case tagStr:
		return core.Str(d.str())
	case tagList:
		n := d.count(1)
		items := make([]core.Value, n)
		for i := range items {
			items[i] = d.coreValue(depth + 1)
		}
		return core.List(items...)
	case tagRecord:
		n := d.count(2)
		fields := make(map[string]core.Value, n)
		for i := 0; i < n; i++ {
			k := d.str()
			fields[k] = d.coreValue(depth + 1)
		}
		return core.Record(fields)
	default:
		d.fail("unknown value tag %d", tag)
		return core.Nil()
	}
}

// decode materializes the frame's arguments and pinned ECVs — the work a
// memo hit never does.
func (f *EvalFrame) decode() (args []core.Value, fixed map[string]core.Value, err error) {
	d := bdec{data: f.Canon}
	if n := d.count(1); d.err == nil && n > 0 {
		args = make([]core.Value, n)
		for i := range args {
			args[i] = d.coreValue(0)
		}
	}
	if n := d.count(2); d.err == nil && n > 0 {
		fixed = make(map[string]core.Value, n)
		for i := 0; i < n; i++ {
			k := d.str()
			fixed[k] = d.coreValue(0)
		}
	}
	return args, fixed, d.done()
}

// parseMode is core.ParseMode over frame bytes; the spellings Mode.String
// emits match without allocating.
func parseMode(b []byte) (core.Mode, error) {
	for _, m := range core.Modes {
		if string(b) == m.String() {
			return m, nil
		}
	}
	return core.ParseMode(string(b))
}

// memoKey canonicalizes one framed evaluation of interface name at
// version. Two requests map to the same key exactly when Interface.Eval
// is guaranteed to return the same distribution for both:
//
//   - the key starts with the printable "name@version|" (KeyStack reads
//     the stack back out of it), so re-registering or rebinding
//     invalidates every older entry;
//   - a hex tail follows: the varint-length-prefixed method, the parsed
//     mode, the normalized samples, enumeration limit, and seed as
//     varints, and the frame's canonical argument and pinned-ECV bytes.
//     Hex keeps keys printable for the JSON peer probe, and since the
//     tail holds no '|' or '@', the whole key is injective;
//   - EnumLimit and Samples are normalized to their defaults first, so an
//     explicit DefaultSamples and an omitted samples field collide;
//   - Parallelism (and the queue deadline) are NOT part of the key: the
//     evaluation engine produces bit-identical distributions at every
//     parallelism level, so answers are shared across clients that ask
//     with different worker counts;
//   - mode-irrelevant knobs are dropped (ModeFixed ignores seed, samples,
//     and the enumeration limit; ModeMonteCarlo ignores the enumeration
//     limit). The seed stays in the key for the enumeration modes because
//     they fall back to Monte Carlo beyond EnumLimit.
func memoKey(name string, version uint64, mode core.Mode, f *EvalFrame) string {
	samples, enumLimit, seed := f.Samples, f.EnumLimit, f.Seed
	if samples <= 0 {
		samples = core.DefaultSamples
	}
	if enumLimit <= 0 {
		enumLimit = core.DefaultEnumLimit
	}
	switch mode {
	case core.ModeFixed:
		samples, enumLimit, seed = 0, 0, 0
	case core.ModeMonteCarlo:
		enumLimit = 0
	}
	var scratch [256]byte
	b := append(scratch[:0], name...)
	b = append(b, '@')
	b = strconv.AppendUint(b, version, 10)
	b = append(b, '|')
	var head [64]byte
	h := binary.AppendUvarint(head[:0], uint64(len(f.Method)))
	h = append(h, f.Method...)
	h = append(h, byte(mode))
	h = binary.AppendVarint(h, samples)
	h = binary.AppendVarint(h, enumLimit)
	h = binary.AppendVarint(h, seed)
	b = hex.AppendEncode(b, h)
	b = hex.AppendEncode(b, f.Canon)
	return string(b)
}
