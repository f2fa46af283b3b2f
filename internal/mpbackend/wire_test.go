package mpbackend

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/coll"
)

// decodeNoPanic runs readValue and turns a panic into a test failure, so
// a hostile header reports which input crashed the decoder.
func decodeNoPanic(t *testing.T, buf []byte) (algebra.Value, error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("readValue(% x) panicked: %v", buf, r)
		}
	}()
	v, _, err := readValue(buf)
	return v, err
}

// header builds a value header: the kind byte followed by u32 fields.
func header(kind byte, fields ...uint32) []byte {
	buf := []byte{kind}
	for _, f := range fields {
		buf = binary.LittleEndian.AppendUint32(buf, f)
	}
	return buf
}

// TestReadValueMatrixHeaderOverflow: a 9-byte matrix header claiming
// 2^28 × 2^28 words must be rejected, not handed to make.
func TestReadValueMatrixHeaderOverflow(t *testing.T) {
	_, err := decodeNoPanic(t, header(kindMat, 1<<28, 1<<28))
	if err == nil {
		t.Fatal("a 2^28 × 2^28 matrix header with no payload decoded without error")
	}
}

// TestReadValueVecHeaderNoAlloc: a 5-byte vec header claiming 2^28 words
// must report truncation before allocating the 2 GiB it claims.
func TestReadValueVecHeaderNoAlloc(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeNoPanic(t, header(kindVec, 1<<28))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want a truncation error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a 5-byte header allocated %d bytes", grew)
	}
}

// TestReadValueHostileHeaders: every length field is bounded by the
// bytes that follow it, so each of these short inputs fails cleanly.
func TestReadValueHostileHeaders(t *testing.T) {
	for name, buf := range map[string][]byte{
		"flat tuple": header(kindFlat, 1, 1<<28),
		"tuple":      header(kindTuple, 1<<28),
		"list":       header(kindList, 1<<28),
		"matrix":     append(header(kindMat, 3, 3), make([]byte, 8*8)...),
	} {
		if _, err := decodeNoPanic(t, buf); err == nil {
			t.Errorf("%s: % x decoded without error", name, buf)
		}
	}
}

// TestWireRoundTrip: encode then decode is the identity on every value
// kind the codec covers.
func TestWireRoundTrip(t *testing.T) {
	for _, v := range []algebra.Value{
		algebra.Undef{},
		algebra.Scalar(2.5),
		algebra.Vec{1, 2, 3},
		algebra.Vec{},
		&algebra.FlatTuple{W: 2, Data: []float64{1, 2, 3, 4}},
		algebra.Tuple{algebra.Scalar(1), algebra.Vec{2}},
		algebra.Mat{R: 2, C: 2, Data: []float64{1, 2, 3, 4}},
		coll.ValueList{algebra.Vec{1}, algebra.Undef{}},
	} {
		got, rest, err := readValue(appendValue(nil, v))
		if err != nil || len(rest) != 0 {
			t.Fatalf("%v: err=%v, %d trailing bytes", v, err, len(rest))
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip of %v gave %v", v, got)
		}
	}
}
