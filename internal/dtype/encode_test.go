package dtype

import (
	"errors"
	"math/rand"
	"reflect"
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

func TestPackAllClasses(t *testing.T) {
	cases := []struct {
		buf  any
		c    Class
		wire int
	}{
		{[]byte{1, 2, 3}, U8, 3},
		{[]bool{true, false, true}, Bool, 3},
		{[]int16{-1, 2, -3}, I16, 6},
		{[]int32{1 << 20, -5, 7}, I32, 12},
		{[]int64{1 << 40, -9, 11}, I64, 24},
		{[]float32{1.5, -2.5, 3.25}, F32, 12},
		{[]float64{1e100, -2e-100, 0}, F64, 24},
	}
	for _, tc := range cases {
		ty := Basic(tc.c, tc.c.String())
		wire, err := Pack(nil, tc.buf, 0, 3, ty)
		if err != nil {
			t.Fatalf("%s: %v", tc.c, err)
		}
		if len(wire) != tc.wire {
			t.Fatalf("%s: wire %d bytes, want %d", tc.c, len(wire), tc.wire)
		}
		dst := MakeDense(tc.c, 3)
		if _, err := Unpack(wire, dst, 0, 3, ty); err != nil {
			t.Fatalf("%s: %v", tc.c, err)
		}
		if !reflect.DeepEqual(dst, tc.buf) {
			t.Fatalf("%s: roundtrip %v != %v", tc.c, dst, tc.buf)
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
	if _, err := CheckSection(make([]int32, 6), 0, 1, v); !errors.Is(err, ErrUncommitted) {
		t.Fatalf("uncommitted: %v", err)
	}
	v.Commit()
	if _, err := CheckSection(make([]int32, 5), 0, 1, v); err != nil {
		t.Fatalf("exact fit: %v", err)
	}
	if _, err := CheckSection(make([]int32, 4), 0, 1, v); !errors.Is(err, ErrBounds) {
		t.Fatalf("short buffer: %v", err)
	}
	if _, err := CheckSection(make([]int64, 8), 0, 1, v); !errors.Is(err, ErrClassMismatch) {
		t.Fatalf("wrong class: %v", err)
	}
	if _, err := CheckSection(make([]int32, 1), 0, 0, v); err != nil {
		t.Fatalf("count 0: %v", err)
	}
}
