package binio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U8(7)
	w.U32(0xDEADBEEF)
	w.U64(1 << 60)
	w.I64(-42)
	w.Int(123456)
	w.F64(3.25)
	w.F64(math.NaN())
	w.Bool(true)
	w.Bool(false)
	w.String("hello")
	w.String("")
	if err := w.Err(); err != nil {
		t.Fatalf("write: %v", err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %x", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 123456 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != 3.25 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsNaN(got) {
		t.Errorf("F64 NaN = %v", got)
	}
	if !r.Bool() || r.Bool() {
		t.Errorf("Bool round-trip broken")
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("read: %v", err)
	}
}

func TestTruncatedInputErrorsNotPanics(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(99)
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		r.U64()
		if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: err = %v, want unexpected EOF", cut, r.Err())
		}
	}
}

func TestCountRejectsHostileLengths(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I64(1 << 40) // claims 2^40 elements in a 8-byte input
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Fatalf("Count = %d, err = %v; want 0 and error", n, r.Err())
	}

	buf.Reset()
	w = NewWriter(&buf)
	w.I64(-1)
	r = NewReader(bytes.NewReader(buf.Bytes()))
	if n := r.Count(1); n != 0 || r.Err() == nil {
		t.Fatalf("negative Count = %d, err = %v; want 0 and error", n, r.Err())
	}
}

func TestStringRejectsLyingLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(1 << 30) // length prefix far beyond the input
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if s := r.String(); s != "" || r.Err() == nil {
		t.Fatalf("String = %q, err = %v; want error", s, r.Err())
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	r.U8()
	first := r.Err()
	if first == nil {
		t.Fatal("expected error on empty input")
	}
	r.U64()
	_ = r.String()
	if r.Err() != first {
		t.Fatalf("error not sticky: %v vs %v", r.Err(), first)
	}
}

func TestNestedReaderInheritsLimit(t *testing.T) {
	// An inner reader built over an outer one must still see a byte
	// budget, so hostile counts fail even two layers deep.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I64(1 << 40)
	outer := NewReader(bytes.NewReader(buf.Bytes()))
	inner := NewReader(outer)
	if inner.Len() != outer.Len() || inner.Len() < 0 {
		t.Fatalf("inner Len = %d, outer = %d", inner.Len(), outer.Len())
	}
	if n := inner.Count(8); n != 0 || inner.Err() == nil {
		t.Fatalf("nested Count = %d, err = %v; want error", n, inner.Err())
	}
}

func TestUnknownLengthSourceStillCapped(t *testing.T) {
	// strings.Reader has Len; wrap in a bare io.Reader to hide it.
	src := io.MultiReader(strings.NewReader(string(encodeI64(1 << 40))))
	r := NewReader(src)
	if r.Len() != -1 {
		t.Fatalf("Len = %d, want -1 for unknown source", r.Len())
	}
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Fatalf("Count = %d, err = %v; want default-cap error", n, r.Err())
	}
}

func encodeI64(v int64) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I64(v)
	return buf.Bytes()
}

// TestF64sMatchesF64: the block codec writes exactly the bytes of one F64
// per value, across block boundaries, and reads them back appended to
// the destination; a short input errors.
func TestF64sMatchesF64(t *testing.T) {
	vs := make([]float64, 2*f64Block+3)
	for i := range vs {
		vs[i] = float64(i) * 0.37
	}
	vs[5] = math.NaN()
	var one, block bytes.Buffer
	w := NewWriter(&one)
	for _, v := range vs {
		w.F64(v)
	}
	NewWriter(&block).F64s(vs)
	if !bytes.Equal(one.Bytes(), block.Bytes()) {
		t.Fatal("F64s bytes differ from one F64 per value")
	}

	r := NewReader(bytes.NewReader(block.Bytes()))
	got := r.F64s([]float64{-1}, len(vs))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1+len(vs) || got[0] != -1 {
		t.Fatalf("F64s did not append: %d values, first %v", len(got), got[0])
	}
	for i, v := range vs {
		if math.Float64bits(got[1+i]) != math.Float64bits(v) {
			t.Fatalf("value %d: got %v, want %v", i, got[1+i], v)
		}
	}

	r = NewReader(bytes.NewReader(block.Bytes()[:8*f64Block+4]))
	if r.F64s(nil, len(vs)); r.Err() == nil {
		t.Fatal("a truncated block decoded without error")
	}
}
