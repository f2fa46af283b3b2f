package mpbackend

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/algebra"
	"repro/internal/coll"
)

// Wire format. Every message is one length-prefixed frame:
//
//	u32 length of the rest | i64 tag | u8 owned | value
//
// and a value is a kind byte followed by its payload:
//
//	0 Undef
//	1 Scalar:    f64
//	2 Vec:       u32 n | n × f64
//	3 FlatTuple: u32 w | u32 len(Data) | len × f64
//	4 Tuple:     u32 n | n × value
//	5 Mat:       u32 r | u32 c | r·c × f64
//	6 ValueList: u32 n | n × value (coll's gather/scatter chunks)
//
// All integers and floats are little-endian. The codec covers exactly the
// value algebra of package algebra; an unknown Value type is a programming
// error and panics at the send site with the offending type named, so a
// new value kind fails loudly instead of deadlocking a remote rank.
// Encoding and decoding are where the multi-process transport pays the
// per-word cost the cost model calls tw — the deep copy the in-process
// backends can elide is mandatory here.

const (
	kindUndef byte = iota
	kindScalar
	kindVec
	kindFlat
	kindTuple
	kindMat
	kindList
)

// appendValue serializes v onto buf.
func appendValue(buf []byte, v algebra.Value) []byte {
	switch x := v.(type) {
	case algebra.Undef:
		return append(buf, kindUndef)
	case algebra.Scalar:
		buf = append(buf, kindScalar)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(x)))
	case algebra.Vec:
		buf = append(buf, kindVec)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		return appendFloats(buf, x)
	case *algebra.FlatTuple:
		buf = append(buf, kindFlat)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x.W))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x.Data)))
		return appendFloats(buf, x.Data)
	case algebra.Tuple:
		buf = append(buf, kindTuple)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		for _, c := range x {
			buf = appendValue(buf, c)
		}
		return buf
	case algebra.Mat:
		buf = append(buf, kindMat)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x.R))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x.C))
		return appendFloats(buf, x.Data)
	case coll.ValueList:
		buf = append(buf, kindList)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		for _, c := range x {
			buf = appendValue(buf, c)
		}
		return buf
	}
	panic(fmt.Sprintf("mpbackend: cannot serialize a %T across process boundaries", v))
}

func appendFloats(buf []byte, fs []float64) []byte {
	for _, f := range fs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

// readValue deserializes one value from buf, returning the remainder.
func readValue(buf []byte) (algebra.Value, []byte, error) {
	if len(buf) < 1 {
		return nil, nil, fmt.Errorf("truncated value")
	}
	kind := buf[0]
	buf = buf[1:]
	switch kind {
	case kindUndef:
		return algebra.Undef{}, buf, nil
	case kindScalar:
		if len(buf) < 8 {
			return nil, nil, fmt.Errorf("truncated scalar")
		}
		s := algebra.Scalar(math.Float64frombits(binary.LittleEndian.Uint64(buf)))
		return s, buf[8:], nil
	case kindVec:
		n, rest, err := readLen(buf, "vec")
		if err == nil {
			err = fits(rest, n, 8, "vec")
		}
		if err != nil {
			return nil, nil, err
		}
		v := make(algebra.Vec, n)
		rest, err = readFloats(rest, v, "vec")
		return v, rest, err
	case kindFlat:
		w, rest, err := readLen(buf, "flat tuple")
		if err != nil {
			return nil, nil, err
		}
		n, rest, err := readLen(rest, "flat tuple")
		if err != nil {
			return nil, nil, err
		}
		if w < 1 || n < w || n%w != 0 {
			return nil, nil, fmt.Errorf("flat tuple of %d words in %d components", n, w)
		}
		if err := fits(rest, n, 8, "flat tuple"); err != nil {
			return nil, nil, err
		}
		ft := &algebra.FlatTuple{W: w, Data: make([]float64, n)}
		rest, err = readFloats(rest, ft.Data, "flat tuple")
		return ft, rest, err
	case kindTuple:
		n, rest, err := readLen(buf, "tuple")
		if err == nil {
			err = fits(rest, n, 1, "tuple")
		}
		if err != nil {
			return nil, nil, err
		}
		t := make(algebra.Tuple, n)
		for i := range t {
			t[i], rest, err = readValue(rest)
			if err != nil {
				return nil, nil, err
			}
		}
		return t, rest, nil
	case kindMat:
		r, rest, err := readLen(buf, "matrix")
		if err != nil {
			return nil, nil, err
		}
		c, rest, err := readLen(rest, "matrix")
		if err != nil {
			return nil, nil, err
		}
		// r·c·8 must fit in the remaining bytes; dividing instead of
		// multiplying keeps the check itself from overflowing.
		if c > 0 && r > len(rest)/8/c {
			return nil, nil, fmt.Errorf("truncated matrix payload: %d × %d words in %d bytes", r, c, len(rest))
		}
		m := algebra.Mat{R: r, C: c, Data: make([]float64, r*c)}
		rest, err = readFloats(rest, m.Data, "matrix")
		return m, rest, err
	case kindList:
		n, rest, err := readLen(buf, "value list")
		if err == nil {
			err = fits(rest, n, 1, "value list")
		}
		if err != nil {
			return nil, nil, err
		}
		l := make(coll.ValueList, n)
		for i := range l {
			l[i], rest, err = readValue(rest)
			if err != nil {
				return nil, nil, err
			}
		}
		return l, rest, nil
	}
	return nil, nil, fmt.Errorf("unknown value kind %d", kind)
}

func readLen(buf []byte, what string) (int, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("truncated %s header", what)
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > 1<<28 {
		return 0, nil, fmt.Errorf("implausible %s size %d", what, n)
	}
	return int(n), buf[4:], nil
}

// fits checks, before anything is allocated, that n elements of at least
// size bytes each can still follow in buf — a length header never makes
// the decoder allocate more than the frame it arrived in could hold.
func fits(buf []byte, n, size int, what string) error {
	if n > len(buf)/size {
		return fmt.Errorf("truncated %s payload: %d elements in %d bytes", what, n, len(buf))
	}
	return nil
}

func readFloats(buf []byte, dst []float64, what string) ([]byte, error) {
	if len(buf) < 8*len(dst) {
		return nil, fmt.Errorf("truncated %s payload", what)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return buf[8*len(dst):], nil
}

// appendFrame serializes a tagged message onto buf, length prefix
// included.
func appendFrame(buf []byte, tag int, owned bool, v algebra.Value) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length back-patched below
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(tag)))
	if owned {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendValue(buf, v)
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// readFrame reads one frame from r, blocking until it is complete.
func readFrame(r io.Reader) (tag int, owned bool, v algebra.Value, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, false, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 9 || n > 1<<30 {
		return 0, false, nil, fmt.Errorf("implausible frame length %d", n)
	}
	body := make([]byte, n)
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, false, nil, err
	}
	tag = int(int64(binary.LittleEndian.Uint64(body)))
	owned = body[8] != 0
	v, rest, err := readValue(body[9:])
	if err != nil {
		return 0, false, nil, err
	}
	if len(rest) != 0 {
		return 0, false, nil, fmt.Errorf("%d trailing bytes after value", len(rest))
	}
	return tag, owned, v, nil
}
