package dtype

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
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
	wire, err := EncodeObjects([]any{testStruct{A: 7, B: "x", C: []float64{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := DecodeObjects(wire)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := objs[0].(testStruct)
	if !ok || len(objs) != 1 {
		t.Fatalf("decoded %#v", objs)
	}
	if got.A != 7 || got.B != "x" || len(got.C) != 2 {
		t.Fatalf("decoded %+v", got)
	}
}

// TestObjectLayout: an Obj payload is its object count, its stream
// length and one gob stream, which describes a repeated type once.
func TestObjectLayout(t *testing.T) {
	one, err := EncodeObjects([]any{testStruct{A: 1}})
	if err != nil {
		t.Fatal(err)
	}
	two, err := EncodeObjects([]any{testStruct{A: 1}, testStruct{A: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, wire := range [][]byte{one, two} {
		if n, err := ObjectsLen(append(wire, 0xee)); err != nil || n != len(wire) {
			t.Fatalf("ObjectsLen = %d, %v; want %d", n, err, len(wire))
		}
		if size := binary.LittleEndian.Uint32(wire[4:]); int(size) != len(wire)-8 {
			t.Fatalf("stream length word %d of a %d-byte payload", size, len(wire))
		}
	}
	if got := binary.LittleEndian.Uint32(two); got != 2 {
		t.Fatalf("count word %d, want 2", got)
	}
	// The second element repeats no type description.
	if extra := len(two) - len(one); extra >= len(one)/2 {
		t.Fatalf("second element costs %d bytes; the first whole payload is %d", extra, len(one))
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
	for _, c := range []struct {
		name string
		wire []byte
	}{
		{"short header", []byte{1, 0, 0, 0, 2, 0}},
		{"count beyond the stream", []byte{3, 0, 0, 0, 2, 0, 0, 0, 1, 2}},
		{"stream past the payload", []byte{1, 0, 0, 0, 4, 0, 0, 0, 1, 2, 3}},
		// A stream length that wraps negative as a 32-bit int must be
		// refused, not sliced with.
		{"stream length wraps negative", []byte{1, 0, 0, 0, 0xf0, 0xff, 0xff, 0xff, 1, 2, 3}},
		{"count wraps negative", []byte{0xf0, 0xff, 0xff, 0xff, 0xf0, 0xff, 0xff, 0xff, 1, 2, 3}},
	} {
		if _, err := Unpack(c.wire, make([]any, 2), 0, 2, Basic(Obj, "OBJECT")); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: Unpack got %v, want ErrFormat", c.name, err)
		}
		if _, err := DecodeObjects(c.wire); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: DecodeObjects got %v, want ErrFormat", c.name, err)
		}
		if _, err := ObjectsLen(c.wire); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: ObjectsLen got %v, want ErrFormat", c.name, err)
		}
	}
	// A count the stream does not hold is a decode error, not a hang or
	// a panic.
	wire, err := EncodeObjects([]any{1})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(wire, 2)
	if _, err := DecodeObjects(wire); err == nil || !strings.HasPrefix(err.Error(), "dtype: object decode: ") {
		t.Errorf("count past the stream's objects: got %v, want a decode error", err)
	}
}

// ticket is the struct element type of the object-buffer shape tests.
type ticket struct {
	ID   int
	Hops []string
}

func init() { Register(ticket{}) }

// objectRows are the shapes an OBJECT buffer takes: a slice of structs,
// of pointers to structs, and the classic []any.
var objectRows = []struct {
	name    string
	of      func(vals ...ticket) any // a buffer holding vals
	holdAny bool                     // every decoded element fits
}{
	{"[]Struct", func(vals ...ticket) any { return vals }, false},
	{"[]*Struct", func(vals ...ticket) any {
		s := make([]*ticket, len(vals))
		for i := range vals {
			s[i] = &vals[i]
		}
		return s
	}, false},
	{"[]any", func(vals ...ticket) any {
		s := make([]any, len(vals))
		for i, v := range vals {
			s[i] = v
		}
		return s
	}, true},
}

// TestObjectBufferShapes: every slice is an OBJECT buffer, encoded from
// and decoded into the caller's elements in place.
func TestObjectBufferShapes(t *testing.T) {
	obj := Basic(Obj, "OBJECT")
	strided, err := Vector(2, 1, 2, obj) // elements 0 and 2
	if err != nil {
		t.Fatal(err)
	}
	strided.Commit()
	a, b, c := ticket{1, []string{"r0"}}, ticket{2, nil}, ticket{3, []string{"r1", "r2"}}
	junk, zero := ticket{ID: -1}, ticket{}
	// zeroAt is want with element i reset to the zero value of the
	// buffer's element type: nil for a pointer or an interface.
	zeroAt := func(want any, i int) any {
		reflect.ValueOf(want).Index(i).SetZero()
		return want
	}
	for _, row := range objectRows {
		for _, tc := range []struct {
			name          string
			send          any
			count, rcount int
			t             *Type
			into          any
			wantN         int
			wantErr       error
			want          any
		}{
			{"round trip", row.of(a, b, c), 3, 3, obj, row.of(junk, junk, junk), 3, nil, row.of(a, b, c)},
			{"truncation", row.of(a, b, c), 3, 2, obj, row.of(junk, junk), 2, ErrTruncate, row.of(a, b)},
			{"strided", row.of(a, b, c, a), 1, 1, strided, row.of(zero, zero, zero, zero), 2, nil, row.of(a, zero, c, zero)},
			{"nil element", []any{a, nil}, 2, 2, obj, row.of(junk, junk), 2, nil, zeroAt(row.of(a, junk), 1)},
		} {
			wire, err := Pack(nil, tc.send, 0, tc.count, tc.t)
			if err != nil {
				t.Fatalf("%s %s: pack: %v", row.name, tc.name, err)
			}
			n, err := Unpack(wire, tc.into, 0, tc.rcount, tc.t)
			if n != tc.wantN || !errors.Is(err, tc.wantErr) { // errors.Is(err, nil) is err == nil
				t.Errorf("%s %s: unpacked %d, %v; want %d, %v", row.name, tc.name, n, err, tc.wantN, tc.wantErr)
			}
			if !reflect.DeepEqual(tc.into, tc.want) {
				t.Errorf("%s %s: got %#v, want %#v", row.name, tc.name, tc.into, tc.want)
			}
		}

		// A wrong-typed element is a class mismatch after the elements
		// before it are deposited — unless the buffer holds anything.
		wire, err := Pack(nil, []any{a, "stray"}, 0, 2, obj)
		if err != nil {
			t.Fatal(err)
		}
		into := row.of(junk, junk)
		n, err := Unpack(wire, into, 0, 2, obj)
		switch {
		case row.holdAny:
			if err != nil || n != 2 || !reflect.DeepEqual(into, []any{a, "stray"}) {
				t.Errorf("%s wrong type: %d, %v, %#v", row.name, n, err, into)
			}
		case !errors.Is(err, ErrClassMismatch) || !strings.Contains(err.Error(), "element 1 arrived as string"):
			t.Errorf("%s wrong type: got %v, want ErrClassMismatch naming element 1", row.name, err)
		case n != 1 || !reflect.DeepEqual(into, row.of(a, junk)):
			t.Errorf("%s wrong type: deposited %d, %#v; want element 0 only", row.name, n, into)
		}

		// The wire bytes depend on the values only, not on the slice type.
		boxed, err := Pack(nil, []any{a, b, c}, 0, 3, obj)
		if err != nil {
			t.Fatal(err)
		}
		if wire, err := Pack(nil, row.of(a, b, c), 0, 3, obj); err != nil || !bytes.Equal(wire, boxed) {
			t.Errorf("%s packs to different bytes than []any (%v)", row.name, err)
		}
	}
}

// FuzzUnpackObjects: an OBJECT payload is bytes a peer put on the wire.
// Decoding any input into any buffer shape must return, never panic, and
// fail only with the package's format, truncation or class errors or a
// gob decode error; ObjectsLen must measure no more than the input.
func FuzzUnpackObjects(f *testing.F) {
	obj := Basic(Obj, "OBJECT")
	for _, buf := range []any{[]any{ticket{7, []string{"x"}}, "s", 3}, []ticket{{1, nil}, {2, []string{"y"}}}} {
		wire, err := Pack(nil, buf, 0, 2, obj)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		// The same stream under a count it does not hold.
		wire = bytes.Clone(wire)
		binary.LittleEndian.PutUint32(wire, 3)
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if n, err := ObjectsLen(data); err == nil && n > len(data) {
			t.Fatalf("ObjectsLen = %d of a %d-byte input", n, len(data))
		}
		for _, buf := range []any{make([]any, 3), make([]ticket, 3), make([]*ticket, 3)} {
			_, err := Unpack(data, buf, 0, 3, obj)
			if err == nil || errors.Is(err, ErrFormat) || errors.Is(err, ErrTruncate) ||
				errors.Is(err, ErrClassMismatch) || strings.HasPrefix(err.Error(), "dtype: object decode: ") {
				continue
			}
			t.Fatalf("%T: unexpected error %v", buf, err)
		}
	})
}

// BenchmarkObjectCodec packs and unpacks a section of 1, 64 and 1,024
// struct elements and reports the wire bytes, time and allocations per
// element.
func BenchmarkObjectCodec(b *testing.B) {
	obj := Basic(Obj, "OBJECT")
	for _, n := range []int{1, 64, 1024} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			send, into := make([]testStruct, n), make([]testStruct, n)
			for i := range send {
				send[i] = testStruct{A: i, B: "element", C: []float64{float64(i), 0.5}}
			}
			var wire []byte
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				var err error
				if wire, err = Pack(wire[:0], send, 0, n, obj); err != nil {
					b.Fatal(err)
				}
				if _, err := Unpack(wire, into, 0, n, obj); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if !reflect.DeepEqual(into, send) {
				b.Fatal("unpacked elements differ from the packed ones")
			}
			per := float64(b.N * n)
			b.ReportMetric(float64(len(wire))/float64(n), "B/elem")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/elem")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/elem")
		})
	}
}
