package dtype

import (
	"errors"
	"reflect"
	"testing"
)

type testStruct struct {
	A int
	B string
	C []float64
}

func init() {
	Register(testStruct{})
	Register(map[string]int{})
}

func TestObjectRoundTrip(t *testing.T) {
	blob, err := EncodeObject(testStruct{A: 7, B: "x", C: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeObject(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(testStruct)
	if !ok {
		t.Fatalf("decoded %T", v)
	}
	if got.A != 7 || got.B != "x" || len(got.C) != 2 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestObjectBufferPack(t *testing.T) {
	objType := Basic(Obj, "OBJECT")
	buf := []any{
		testStruct{A: 1, B: "one"},
		"plain string",
		42,
		map[string]int{"k": 9},
	}
	wire, err := Pack(nil, buf, 0, 4, objType)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]any, 4)
	n, err := Unpack(wire, out, 0, 4, objType)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("unpacked %d objects", n)
	}
	if out[0].(testStruct).B != "one" || out[1].(string) != "plain string" ||
		out[2].(int) != 42 || out[3].(map[string]int)["k"] != 9 {
		t.Fatalf("roundtrip: %#v", out)
	}
}

func TestObjectTruncation(t *testing.T) {
	objType := Basic(Obj, "OBJECT")
	buf := []any{1, 2, 3}
	wire, err := Pack(nil, buf, 0, 3, objType)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]any, 2)
	n, err := Unpack(wire, out, 0, 2, objType)
	if !errors.Is(err, ErrTruncate) {
		t.Fatalf("got %v, want ErrTruncate", err)
	}
	if n != 2 || out[0].(int) != 1 || out[1].(int) != 2 {
		t.Fatalf("prefix: n=%d %v", n, out)
	}
}

func TestObjectWithOffsetsAndNil(t *testing.T) {
	objType := Basic(Obj, "OBJECT")
	buf := []any{nil, "a", "b", nil}
	wire, err := Pack(nil, buf, 1, 2, objType)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]any, 4)
	if _, err := Unpack(wire, out, 2, 2, objType); err != nil {
		t.Fatal(err)
	}
	want := []any{nil, nil, "a", "b"}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %#v, want %#v", out, want)
	}
}

func TestObjectSliceCodec(t *testing.T) {
	buf := []any{"x", "y"}
	wire, err := EncodeObjects(buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeObjects(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, buf) {
		t.Fatalf("got %#v", back)
	}
	// A count the payload cannot possibly hold must not be allocated.
	if _, err := DecodeObjects([]byte{0xff, 0xff, 0xff, 0x7f}); !errors.Is(err, ErrFormat) {
		t.Fatalf("oversized count: %v", err)
	}
}

func TestObjectMalformed(t *testing.T) {
	out := make([]any, 1)
	if _, err := Unpack([]byte{1, 2}, out, 0, 1, Basic(Obj, "OBJECT")); !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
}
