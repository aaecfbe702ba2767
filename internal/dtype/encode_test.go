package dtype

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestPackUnpackContiguous(t *testing.T) {
	src := []int32{10, 20, 30, 40, 50}
	wire, err := Pack(nil, src, 1, 3, Basic(I32, "INT"))
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != 12 {
		t.Fatalf("wire length %d, want 12", len(wire))
	}
	dst := make([]int32, 5)
	n, err := Unpack(wire, dst, 2, 3, Basic(I32, "INT"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("unpacked %d elements, want 3", n)
	}
	want := []int32{0, 0, 20, 30, 40}
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("dst = %v, want %v", dst, want)
	}
}

// classValues gives every fixed-size class a value per buffer index,
// with multi-byte, negative and fractional values where the class has
// them.
var classValues = []struct {
	c   Class
	val func(i int) any
}{
	{U8, func(i int) any { return byte(7*i + 1) }},
	{Bool, func(i int) any { return i%3 != 1 }},
	{I16, func(i int) any { return int16(-300*i + 7) }},
	{I32, func(i int) any { return int32(-70001*i + 3) }},
	{I64, func(i int) any { return int64(i)<<40 - 5 }},
	{F32, func(i int) any { return float32(i)*-1.5 + 0.25 }},
	{F64, func(i int) any { return float64(i)*1e100 - 2e-100 }},
}

// TestPackAllClasses pins the wire bytes of every fixed-size class in
// every shape against an oracle that encodes element by element with
// encoding/binary, and what every kind of delivery deposits. The second
// pass flips hostLE, so this host runs the byte-swapping path: Pack must
// reverse every element's bytes and Unpack must undo that.
func TestPackAllClasses(t *testing.T) {
	packAllClasses(t, false)
	t.Run("swapped", func(t *testing.T) {
		saved := hostLE
		hostLE = !saved
		t.Cleanup(func() { hostLE = saved })
		packAllClasses(t, true)
	})
}

func packAllClasses(t *testing.T, swapped bool) {
	const bufLen = 20
	for _, cv := range classValues {
		b := BasicType(cv.c)
		vec, _ := Vector(4, 1, 3, b)                         // runs of 1
		idx, _ := Indexed([]int{2, 1, 3}, []int{0, 3, 6}, b) // runs of 2, 1, 3
		vec.Commit()
		idx.Commit()
		src := MakeDense(cv.c, bufLen)
		for i := 0; i < bufLen; i++ {
			reflect.ValueOf(src).Index(i).Set(reflect.ValueOf(cv.val(i)))
		}
		for _, sh := range []struct {
			name          string
			ty            *Type
			offset, count int
		}{
			{"contiguous", b, 1, 5},
			{"vector", vec, 2, 1},
			{"indexed", idx, 1, 2},
		} {
			name := fmt.Sprintf("%s %s swapped=%v", cv.c, sh.name, swapped)
			// sel is the buffer index of every element of the section, in
			// wire order, straight from the typemap.
			var sel []int
			for i := 0; i < sh.count; i++ {
				for _, d := range sh.ty.disps {
					sel = append(sel, sh.offset+i*sh.ty.Extent()+d)
				}
			}
			es := cv.c.WireSize()
			var want []byte
			for _, i := range sel {
				var e bytes.Buffer
				if err := binary.Write(&e, binary.LittleEndian, reflect.ValueOf(src).Index(i).Interface()); err != nil {
					t.Fatal(err)
				}
				if swapped {
					slices.Reverse(e.Bytes())
				}
				want = append(want, e.Bytes()...)
			}
			wire, err := Pack(nil, src, sh.offset, sh.count, sh.ty)
			if err != nil || !bytes.Equal(wire, want) {
				t.Fatalf("%s: Pack = %x, %v; want %x", name, wire, err, want)
			}
			for _, dl := range []struct {
				name    string
				data    []byte
				wantN   int
				wantErr error
			}{
				{"exact", wire, len(sel), nil},
				// One element short: the section's last run is cut
				// mid-way unless it is a single element.
				{"short", wire[:len(wire)-es], len(sel) - 1, nil},
				// One element past the section: the message's run is cut
				// where the section ends and the rest is dropped.
				{"truncated", append(wire[:len(wire):len(wire)], wire[:es]...), len(sel), ErrTruncate},
			} {
				dst, exp := MakeDense(cv.c, bufLen), MakeDense(cv.c, bufLen)
				for _, i := range sel[:dl.wantN] {
					reflect.ValueOf(exp).Index(i).Set(reflect.ValueOf(src).Index(i))
				}
				n, err := Unpack(dl.data, dst, sh.offset, sh.count, sh.ty)
				if n != dl.wantN || !errors.Is(err, dl.wantErr) || !reflect.DeepEqual(dst, exp) {
					t.Errorf("%s %s: Unpack = %d, %v, %v; want %d, %v, %v", name, dl.name, n, err, dst, dl.wantN, dl.wantErr, exp)
				}
			}
		}
	}
}

func TestClassMismatch(t *testing.T) {
	if _, err := Pack(nil, []int32{1}, 0, 1, Basic(F64, "DOUBLE")); !errors.Is(err, ErrClassMismatch) {
		t.Fatalf("got %v, want ErrClassMismatch", err)
	}
	if _, err := Pack(nil, "not a slice", 0, 1, Basic(U8, "BYTE")); !errors.Is(err, ErrClassMismatch) {
		t.Fatalf("got %v, want ErrClassMismatch", err)
	}
}

func TestBoundsChecks(t *testing.T) {
	buf := make([]int32, 4)
	ty := Basic(I32, "INT")
	if _, err := Pack(nil, buf, 2, 3, ty); !errors.Is(err, ErrBounds) {
		t.Fatalf("overrun pack: got %v", err)
	}
	if _, err := Pack(nil, buf, -1, 1, ty); !errors.Is(err, ErrNegative) {
		t.Fatalf("negative offset: got %v", err)
	}
	v, _ := Vector(2, 1, 3, ty) // accesses 0 and 3
	v.Commit()
	if _, err := Pack(nil, buf, 1, 1, v); !errors.Is(err, ErrBounds) {
		t.Fatalf("strided overrun: got %v", err)
	}
}

func TestTruncation(t *testing.T) {
	src := []int32{1, 2, 3, 4, 5}
	wire, err := Pack(nil, src, 0, 5, Basic(I32, "INT"))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, 3)
	n, err := Unpack(wire, dst, 0, 3, Basic(I32, "INT"))
	if !errors.Is(err, ErrTruncate) {
		t.Fatalf("got %v, want ErrTruncate", err)
	}
	if n != 3 {
		t.Fatalf("filled %d elements, want 3", n)
	}
	if dst[0] != 1 || dst[2] != 3 {
		t.Fatalf("prefix not deposited: %v", dst)
	}
}

func TestShortDelivery(t *testing.T) {
	src := []int32{7, 8}
	wire, err := Pack(nil, src, 0, 2, Basic(I32, "INT"))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, 10)
	n, err := Unpack(wire, dst, 0, 10, Basic(I32, "INT"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("unpacked %d, want 2", n)
	}
}

func TestStridedRoundTrip(t *testing.T) {
	// A 4x4 column through a vector type, packed then deposited into a
	// differently-offset matrix.
	v, _ := Vector(4, 1, 4, Basic(F64, "DOUBLE"))
	v.Commit()
	src := make([]float64, 16)
	for i := range src {
		src[i] = float64(i)
	}
	wire, err := Pack(nil, src, 1, 1, v) // column 1: 1,5,9,13
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 16)
	if _, err := Unpack(wire, dst, 2, 1, v); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 5, 9, 13} {
		if got := dst[2+4*i]; got != want {
			t.Fatalf("dst col = %v... want %v at row %d", got, want, i)
		}
	}
}

// TestPackUnpackRoundTripProperty: for random data and random derived
// types, Unpack(Pack(x)) == x on the selected elements.
func TestPackUnpackRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := randomType(rng, 2)
		if ty.Size() == 0 {
			return true
		}
		count := 1 + rng.Intn(3)
		span := (count-1)*ty.Extent() + ty.Ub() + 8
		src := make([]int64, span+8)
		for i := range src {
			src[i] = rng.Int63() - (1 << 62)
		}
		wire, err := Pack(nil, src, 4, count, ty)
		if err != nil {
			t.Logf("pack: %v (type %v)", err, ty)
			return false
		}
		dst := make([]int64, len(src))
		n, err := Unpack(wire, dst, 4, count, ty)
		if err != nil || n != count*ty.Size() {
			t.Logf("unpack: n=%d err=%v", n, err)
			return false
		}
		// Every typemap position must match; untouched positions stay 0.
		for i := 0; i < count; i++ {
			base := 4 + i*ty.Extent()
			for _, d := range ty.disps {
				if dst[base+d] != src[base+d] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomType builds a random derived-type tree over I64 up to the given
// depth.
func randomType(rng *rand.Rand, depth int) *Type {
	base := Basic(I64, "LONG")
	if depth == 0 || rng.Intn(3) == 0 {
		return base
	}
	inner := randomType(rng, depth-1)
	var ty *Type
	var err error
	switch rng.Intn(4) {
	case 0:
		ty, err = Contiguous(1+rng.Intn(3), inner)
	case 1:
		ty, err = Vector(1+rng.Intn(3), 1+rng.Intn(2), 1+rng.Intn(4), inner)
	case 2:
		ty, err = Hvector(1+rng.Intn(3), 1+rng.Intn(2), inner.Extent()*(1+rng.Intn(2))+1, inner)
	default:
		n := 1 + rng.Intn(3)
		bls := make([]int, n)
		dis := make([]int, n)
		at := 0
		for i := range bls {
			bls[i] = 1 + rng.Intn(2)
			dis[i] = at
			at += bls[i]*inner.Extent() + rng.Intn(3)
		}
		ty, err = Indexed(bls, dis, inner)
	}
	if err != nil {
		return base
	}
	ty.Commit()
	return ty
}

func TestCheckSection(t *testing.T) {
	v, _ := Vector(3, 1, 2, Basic(I32, "INT")) // elements 0,2,4
	if _, err := BufOf(make([]int32, 6)).CheckSection(0, 1, v); !errors.Is(err, ErrUncommitted) {
		t.Fatalf("uncommitted: %v", err)
	}
	v.Commit()
	if _, err := BufOf(make([]int32, 5)).CheckSection(0, 1, v); err != nil {
		t.Fatalf("exact fit: %v", err)
	}
	if _, err := BufOf(make([]int32, 4)).CheckSection(0, 1, v); !errors.Is(err, ErrBounds) {
		t.Fatalf("short buffer: %v", err)
	}
	if _, err := BufOf(make([]int64, 8)).CheckSection(0, 1, v); !errors.Is(err, ErrClassMismatch) {
		t.Fatalf("wrong class: %v", err)
	}
	if _, err := BufOf(make([]int32, 1)).CheckSection(0, 0, v); err != nil {
		t.Fatalf("count 0: %v", err)
	}
}

// TestBoundsOverflow: a section whose last item lies beyond what an int
// can index is out of bounds, not a wrapped small index. The UB marker
// makes the extent math.MaxInt/2+1, so (count-1)*extent wraps to 0 for
// count 5 on 64-bit and 32-bit hosts alike.
func TestBoundsOverflow(t *testing.T) {
	huge, err := Struct([]int{1, 1}, []int{0, math.MaxInt/2 + 1}, []*Type{Basic(I32, "INT"), Marker(false, "UB")})
	if err != nil {
		t.Fatal(err)
	}
	huge.Commit()
	buf := make([]int32, 4)
	if _, err := BufOf(buf).CheckSection(0, 5, huge); !errors.Is(err, ErrBounds) {
		t.Errorf("CheckSection: got %v, want ErrBounds", err)
	}
	if _, err := Pack(nil, buf, 0, 5, huge); !errors.Is(err, ErrBounds) {
		t.Errorf("Pack: got %v, want ErrBounds", err)
	}
	if _, err := Unpack(make([]byte, 20), buf, 0, 5, huge); !errors.Is(err, ErrBounds) {
		t.Errorf("Unpack: got %v, want ErrBounds", err)
	}
}

// BenchmarkPackUnpack prices the per-run copy on the shapes the
// benchmark workloads cross: one contiguous DOUBLE (the 8-byte
// ping-pong), a 256-row DOUBLE grid column (the halo exchange's Vector,
// 256 runs of one element) both ways, and a 64 KiB contiguous unpack.
// Pack appends to a buffer with room, so it allocates nothing.
func BenchmarkPackUnpack(b *testing.B) {
	column, err := Vector(256, 1, 258, BasicType(F64))
	if err != nil {
		b.Fatal(err)
	}
	column.Commit()
	grid := make([]float64, 256*258)
	for _, bc := range []struct {
		name  string
		pack  bool
		buf   any // boxed once, so the loop measures Pack/Unpack alone
		count int
		t     *Type
	}{
		{"pack/contig-8B", true, make([]float64, 1), 1, BasicType(F64)},
		{"pack/column-256", true, grid, 1, column},
		{"unpack/column-256", false, grid, 1, column},
		{"unpack/contig-64KiB", false, make([]float64, 8192), 8192, BasicType(F64)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			wire, err := Pack(nil, bc.buf, 0, bc.count, bc.t)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.pack {
					_, err = Pack(wire[:0], bc.buf, 0, bc.count, bc.t)
				} else {
					_, err = Unpack(wire, bc.buf, 0, bc.count, bc.t)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
