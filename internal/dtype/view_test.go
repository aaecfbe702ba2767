package dtype

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

type celsius float64

type seq int16

// TestBufOfNamedPrimitive: a named primitive resolves to its class's
// native slice, sharing storage.
func TestBufOfNamedPrimitive(t *testing.T) {
	buf := []celsius{36.6, -40, 0}
	b := BufOf(buf)
	if n, err := b.Check(BasicType(F64)); err != nil || n != 3 || b.typ != sliceTypes[F64] {
		t.Fatalf("[]celsius resolved to %d elements of the F64 class: %v", n, err)
	}
	// Shared storage: a deposit through the Buf lands in the original.
	if _, err := b.Unpack(rawBytes([]float64{100}), 2, 1, BasicType(F64)); err != nil || buf[2] != 100 {
		t.Fatalf("deposit through the resolved buffer: %v, %v", err, buf)
	}
	// Empty named slice: still resolves (to an empty native slice).
	if c, ok := BufOf([]celsius{}).Class(); !ok || c != F64 {
		t.Fatal("empty named slice must resolve to its class")
	}
}

func TestBufOfClasses(t *testing.T) {
	type ticket struct{ ID int }
	for _, tc := range []struct {
		buf  any
		want Class
		ok   bool
	}{
		{[]float64{1, 2}, F64, true},
		{[]string{"x"}, Obj, true},
		{[]ticket{{1}}, Obj, true},
		{[]any{1}, Obj, true},
		{42, Obj, false},
		{nil, Obj, false},
	} {
		if c, ok := BufOf(tc.buf).Class(); c != tc.want || ok != tc.ok {
			t.Errorf("BufOf(%T).Class() = %v, %v; want %v, %v", tc.buf, c, ok, tc.want, tc.ok)
		}
	}
	if _, err := BufOf(42).Check(BasicType(I32)); !errors.Is(err, ErrClassMismatch) || !strings.Contains(err.Error(), "got int") {
		t.Errorf("non-slice buffer: %v", err)
	}
	// An OBJECT buffer's value is rebuilt as the caller's slice type.
	objs := []ticket{{1}, {2}}
	if v, ok := BufOf(objs).value().([]ticket); !ok || len(v) != 2 || &v[0] != &objs[0] {
		t.Fatalf("value() = %T %v", v, v)
	}
}

func TestPackUnpackNamedPrimitive(t *testing.T) {
	src := []celsius{1.5, -2.25, 3.125}
	wire, err := Pack(nil, src, 0, 3, BasicType(F64))
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != 24 {
		t.Fatalf("wire length %d, want 24 (F64 format, no gob)", len(wire))
	}
	dst := make([]celsius, 3)
	if _, err := Unpack(wire, dst, 0, 3, BasicType(F64)); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip %v != %v", dst, src)
		}
	}
	// Cross-type interop: named sender, native receiver.
	nat := make([]float64, 3)
	if _, err := Unpack(wire, nat, 0, 3, BasicType(F64)); err != nil {
		t.Fatal(err)
	}
	if nat[1] != -2.25 {
		t.Fatalf("native decode %v", nat)
	}
}

func TestPackFastPathMatchesSlowShape(t *testing.T) {
	// The memcpy fast path and the per-element loop must produce
	// identical wire bytes for every fixed-size class.
	i16 := []int16{1, -2, 3, 0x7fff}
	wire, err := Pack(nil, i16, 1, 2, BasicType(I16))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0xfe, 0xff, 0x03, 0x00} // -2, 3 little-endian
	if !bytes.Equal(wire, want) {
		t.Fatalf("wire %x, want %x", wire, want)
	}
	back := make([]int16, 4)
	if _, err := Unpack(wire, back, 2, 2, BasicType(I16)); err != nil {
		t.Fatal(err)
	}
	if back[2] != -2 || back[3] != 3 {
		t.Fatalf("unpack %v", back)
	}
}

func TestUnpackFastPathTruncates(t *testing.T) {
	wire, err := Pack(nil, []float64{1, 2, 3, 4}, 0, 4, BasicType(F64))
	if err != nil {
		t.Fatal(err)
	}
	short := make([]float64, 2)
	n, err := Unpack(wire, short, 0, 2, BasicType(F64))
	if err != ErrTruncate {
		t.Fatalf("error %v, want ErrTruncate", err)
	}
	if n != 2 || short[0] != 1 || short[1] != 2 {
		t.Fatalf("deposited %d: %v", n, short)
	}
}

func TestByteView(t *testing.T) {
	f := []float64{0, 1, 2, 3}
	bv, ok := BufOf(f).ByteView(1, 2)
	if hostLE {
		if !ok || len(bv) != 16 {
			t.Fatalf("byte view ok=%v len=%d", ok, len(bv))
		}
		// Aliasing: mutate through the view.
		for i := range bv {
			bv[i] = 0
		}
		if f[1] != 0 || f[2] != 0 || f[3] != 3 {
			t.Fatalf("view not aliased: %v", f)
		}
	} else if ok {
		t.Fatal("byte view must be disabled on big-endian hosts")
	}
	// bool is excluded (wire 0/1 is normative).
	if _, ok := BufOf([]bool{true}).ByteView(0, 1); ok {
		t.Fatal("bool must not expose a byte view")
	}
	// Zero-length window at the end of the slice must not panic.
	if bv, ok := BufOf(f).ByteView(4, 0); !ok || len(bv) != 0 {
		t.Fatal("empty window must succeed")
	}
	// Named primitives get views too.
	if bv, ok := BufOf([]seq{256}).ByteView(0, 1); hostLE && (!ok || len(bv) != 2 || bv[1] != 1) {
		t.Fatalf("named int16 view ok=%v bv=%x", ok, bv)
	}
}

func TestCheckBufNamedPrimitive(t *testing.T) {
	n, err := BufOf([]celsius{1, 2}).Check(BasicType(F64))
	if err != nil || n != 2 {
		t.Fatalf("Check named: n=%d err=%v", n, err)
	}
	if _, err := BufOf([]celsius{}).Check(BasicType(I32)); err == nil {
		t.Fatal("class mismatch must still be caught through the resolution")
	}
	if c, ok := BufOf([]seq{}).Class(); !ok || c != I16 {
		t.Fatalf("Class of named int16 = %v, %v", c, ok)
	}
}

func TestWireViewAlignment(t *testing.T) {
	backing := make([]float64, 5)
	raw := rawBytes(backing)
	if v, ok := WireView[float64](raw[8:24]); hostLE && (!ok || len(v) != 2) {
		t.Fatalf("aligned window: ok=%v len=%d", ok, len(v))
	} else if ok {
		v[0] = 7
		if backing[1] != 7 {
			t.Fatal("view must alias the wire bytes")
		}
	}
	if _, ok := WireView[float64](raw[3:19]); ok {
		t.Fatal("misaligned window must not be viewed")
	}
	if v, ok := WireView[int32](nil); !ok || v != nil {
		t.Fatal("empty wire is trivially viewable")
	}
}

func TestWireDecodeEncodeMisaligned(t *testing.T) {
	want := []int32{1 << 20, -5, 7}
	wire, err := Pack([]byte{0xee}, want, 0, 3, BasicType(I32)) // payload at offset 1
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int32, 3)
	WireDecode(got, wire[1:])
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode = %v", got)
	}
	out := make([]byte, 13)
	WireEncode(out[1:], got)
	if !bytes.Equal(out[1:], wire[1:]) {
		t.Fatalf("encode = %x, want %x", out[1:], wire[1:])
	}
}

func TestSwapElems(t *testing.T) {
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	swapElems(b, 4)
	if !bytes.Equal(b, []byte{4, 3, 2, 1, 8, 7, 6, 5}) {
		t.Fatalf("swapElems = %v", b)
	}
}
