package pio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gompi/internal/coll"
	"gompi/internal/core"
	"gompi/internal/dtype"
	"gompi/internal/transport"
)

func mustVector(t *testing.T, count, blocklen, stride int, c dtype.Class) *dtype.Type {
	t.Helper()
	ft, err := dtype.Vector(count, blocklen, stride, dtype.BasicType(c))
	if err != nil {
		t.Fatal(err)
	}
	ft.Commit()
	return ft
}

func TestViewSpansIdentity(t *testing.T) {
	v, err := compileView(0, dtype.BasicType(dtype.U8), dtype.BasicType(dtype.U8))
	if err != nil {
		t.Fatal(err)
	}
	got := v.spans(3, 5)
	want := []span{{off: 3, n: 5}}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("spans = %v, want %v", got, want)
	}
}

func TestViewSpansStrided(t *testing.T) {
	// 2 blocks of 3 float64 elements, stride 8: tile covers elements
	// {0,1,2, 8,9,10}, extent 16.
	ft := mustVector(t, 2, 3, 8, dtype.F64)
	v, err := compileView(4, dtype.BasicType(dtype.F64), ft)
	if err != nil {
		t.Fatal(err)
	}
	// First full tile plus the first element of the second tile. The
	// vector's extent is 11 (no UB marker), so the second tile starts
	// at element 11 — adjacent to the first tile's last element, and
	// the span walk merges them.
	got := v.spans(0, 7)
	want := []span{
		{off: (4 + 0) * 8, n: 3 * 8},
		{off: (4 + 8) * 8, n: 4 * 8},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("spans = %v, want %v", got, want)
	}
	// Mid-run start: elements 1..4 of the view.
	got = v.spans(1, 4)
	want = []span{
		{off: (4 + 1) * 8, n: 2 * 8},
		{off: (4 + 8) * 8, n: 2 * 8},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("spans = %v, want %v", got, want)
	}
}

func TestViewSpansMergeContiguous(t *testing.T) {
	// blocklen == stride: tiles are dense, spans must merge into one.
	ft := mustVector(t, 2, 4, 4, dtype.U8)
	v, err := compileView(0, dtype.BasicType(dtype.U8), ft)
	if err != nil {
		t.Fatal(err)
	}
	got := v.spans(0, 24)
	if len(got) != 1 || got[0] != (span{off: 0, n: 24}) {
		t.Fatalf("spans = %v, want one merged span of 24", got)
	}
}

func TestCompileViewRejects(t *testing.T) {
	f64 := dtype.BasicType(dtype.F64)
	overlapping, err := dtype.Hvector(2, 3, 2, f64) // stride 2 < blocklen 3
	if err != nil {
		t.Fatal(err)
	}
	overlapping.Commit()
	uncommitted, err := dtype.Vector(2, 1, 4, f64)
	if err != nil {
		t.Fatal(err)
	}
	decreasing, err := dtype.Indexed([]int{1, 1}, []int{5, 0}, f64)
	if err != nil {
		t.Fatal(err)
	}
	decreasing.Commit()
	obj := dtype.BasicType(dtype.Obj)

	cases := []struct {
		name         string
		disp         int
		etype, ftype *dtype.Type
	}{
		{"negative disp", -1, f64, f64},
		{"obj etype", 0, obj, obj},
		{"class mismatch", 0, f64, dtype.BasicType(dtype.U8)},
		{"uncommitted filetype", 0, f64, uncommitted},
		{"overlapping tiles", 0, f64, overlapping},
		{"non-monotone filetype", 0, f64, decreasing},
	}
	for _, tc := range cases {
		if _, err := compileView(tc.disp, tc.etype, tc.ftype); err == nil {
			t.Errorf("%s: compileView accepted", tc.name)
		}
	}
}

func TestElemsBelow(t *testing.T) {
	// Tile: elements {1, 5} of float64, extent 8 → file elements
	// 2+1, 2+5, 2+9, 2+13, ... with disp 2.
	ft, err := dtype.Indexed([]int{1, 1}, []int{1, 5}, dtype.BasicType(dtype.F64))
	if err != nil {
		t.Fatal(err)
	}
	ft.Commit()
	v, err := compileView(2, dtype.BasicType(dtype.F64), ft)
	if err != nil {
		t.Fatal(err)
	}
	// Indexed([1,1],[1,5]) has lb 1, ub 6, so its extent is 5; check
	// every file size against a brute-force walk of the mapping.
	ext := int64(ft.Extent())
	for fb := int64(0); fb < 200; fb += 4 {
		want := int64(0)
		for k := int64(0); ; k++ {
			tile, w := k/2, k%2
			d := int64(1)
			if w == 1 {
				d = 5
			}
			end := (2 + tile*ext + d + 1) * 8
			if end > fb {
				break
			}
			want++
		}
		if got := v.elemsBelow(fb); got != want {
			t.Fatalf("elemsBelow(%d) = %d, want %d", fb, got, want)
		}
	}
}

func TestIndependentRoundTripStrided(t *testing.T) {
	path := filepath.Join(t.TempDir(), "strided.bin")
	f, err := Open(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// View: every other int32 starting at element 1 — one element per
	// two-element tile, the stride pinned with an explicit UB marker.
	ft, err := dtype.Struct(
		[]int{1, 1},
		[]int{0, 2},
		[]*dtype.Type{dtype.BasicType(dtype.I32), dtype.Marker(false, "ub")},
	)
	if err != nil {
		t.Fatal(err)
	}
	ft.Commit()
	if ft.Extent() != 2 || ft.Size() != 1 {
		t.Fatalf("filetype extent=%d size=%d, want 2/1", ft.Extent(), ft.Size())
	}
	if err := f.SetView(1, dtype.BasicType(dtype.I32), ft); err != nil {
		t.Fatal(err)
	}

	// Write view elements 0..4 → file int32 elements 1,3,5,7,9.
	wire, err := dtype.Pack(nil, []int32{10, 11, 12, 13, 14}, 0, 5, dtype.BasicType(dtype.I32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteView(0, wire); err != nil {
		t.Fatal(err)
	}

	back, got, err := f.ReadView(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != len(wire) || !bytes.Equal(back, wire) {
		t.Fatalf("round trip: got %d bytes %v, want %d bytes %v", got, back, len(wire), wire)
	}

	// The raw file must hold the data at the strided positions.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := make([]int32, 10)
	if _, err := dtype.Unpack(raw, whole, 0, len(raw)/4, dtype.BasicType(dtype.I32)); err != nil {
		t.Fatal(err)
	}
	for i, v := range []int32{10, 11, 12, 13, 14} {
		if whole[1+2*i] != v {
			t.Fatalf("file element %d = %d, want %d (file=%v)", 1+2*i, whole[1+2*i], v, whole)
		}
	}
}

func TestReadViewPastEOF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eof.bin")
	f, err := Open(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteView(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	wire, got, err := f.ReadView(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("got = %d, want 3", got)
	}
	if !bytes.Equal(wire, []byte{1, 2, 3, 0, 0, 0, 0, 0}) {
		t.Fatalf("wire = %v", wire)
	}
}

// runGroup executes fn concurrently on n fresh ranks over a shm
// fabric, with a per-rank pio handle on one shared scratch file.
func runGroup(t *testing.T, n int, path string, flags int, fn func(c *coll.Comm, f *File) (any, error)) []any {
	t.Helper()
	devs := transport.NewShmJob(n, 0)
	procs := make([]*core.Proc, n)
	for i, d := range devs {
		procs[i] = core.NewProc(d, core.Config{EagerLimit: 256})
	}
	defer func() {
		for _, p := range procs {
			p.Close()
		}
	}()
	// Rank 0 creates the file up front; goroutine ranks then open it.
	first, err := Open(path, flags|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	results := make([]any, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			group := make([]int, n)
			for j := range group {
				group[j] = j
			}
			c := &coll.Comm{
				P:     procs[rank],
				Ctx:   1,
				Rank:  rank,
				Size:  n,
				World: func(gr int) int { return group[gr] },
			}
			f, err := Open(path, flags, 0o644)
			if err != nil {
				errs[rank] = err
				return
			}
			defer f.Close()
			f.stripe = 64 // tiny stripes: force multi-aggregator routing
			results[rank], errs[rank] = fn(c, f)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return results
}

func TestTwoPhaseWriteReadRoundTrip(t *testing.T) {
	const n, per = 4, 97 // deliberately not stripe-aligned
	path := filepath.Join(t.TempDir(), "twophase.bin")
	runGroup(t, n, path, os.O_RDWR, func(c *coll.Comm, f *File) (any, error) {
		// Rank r owns bytes [r*per, (r+1)*per): contiguous partition,
		// chunked across aggregators by the 64-byte stripes.
		data := make([]byte, per)
		for i := range data {
			data[i] = byte(c.Rank*31 + i)
		}
		p, err := f.WriteAllPlan(c, c.Rank*per, data)
		if err != nil {
			return nil, err
		}
		if err := p.Run(); err != nil {
			return nil, err
		}

		var rr ReadResult
		p, err = f.ReadAllPlan(c, c.Rank*per, per, &rr)
		if err != nil {
			return nil, err
		}
		if err := p.Run(); err != nil {
			return nil, err
		}
		if rr.Got != per {
			return nil, fmt.Errorf("rank %d: got %d bytes, want %d", c.Rank, rr.Got, per)
		}
		if !bytes.Equal(rr.Wire, data) {
			return nil, fmt.Errorf("rank %d: round trip mismatch", c.Rank)
		}
		return nil, nil
	})
}

func TestTwoPhaseReadPastEOF(t *testing.T) {
	const n = 4
	path := filepath.Join(t.TempDir(), "eofall.bin")
	runGroup(t, n, path, os.O_RDWR, func(c *coll.Comm, f *File) (any, error) {
		// Only 100 bytes exist; every rank asks for a 64-byte block at
		// r*64, so rank 1 runs partially and ranks 2, 3 fully off the
		// end. The barrier orders rank 0's independent write before the
		// collective read.
		if c.Rank == 0 {
			if _, err := f.WriteView(0, make([]byte, 100)); err != nil {
				return nil, err
			}
		}
		if err := c.Barrier(); err != nil {
			return nil, err
		}
		var rr ReadResult
		p, err := f.ReadAllPlan(c, c.Rank*64, 64, &rr)
		if err != nil {
			return nil, err
		}
		if err := p.Run(); err != nil {
			return nil, err
		}
		want := 100 - c.Rank*64
		if want < 0 {
			want = 0
		}
		if want > 64 {
			want = 64
		}
		if rr.Got != want {
			return nil, fmt.Errorf("rank %d: got %d, want %d", c.Rank, rr.Got, want)
		}
		return nil, nil
	})
}

func TestTwoPhaseInterleavedStridedViews(t *testing.T) {
	// The acceptance shape: a column block of a row-major matrix. Rank
	// r owns columns [r*cpr, (r+1)*cpr) of an n×n float64 matrix; all
	// ranks write collectively through strided views, then read back.
	const ranks, side = 4, 16
	const cpr = side / ranks
	path := filepath.Join(t.TempDir(), "matrix.bin")
	runGroup(t, ranks, path, os.O_RDWR, func(c *coll.Comm, f *File) (any, error) {
		ft, err := dtype.Vector(side, cpr, side, dtype.BasicType(dtype.F64))
		if err != nil {
			return nil, err
		}
		ft.Commit()
		if err := f.SetView(c.Rank*cpr, dtype.BasicType(dtype.F64), ft); err != nil {
			return nil, err
		}
		mine := make([]float64, side*cpr)
		for i := range mine {
			mine[i] = float64(c.Rank*10000 + i)
		}
		wire, err := dtype.Pack(nil, mine, 0, len(mine), dtype.BasicType(dtype.F64))
		if err != nil {
			return nil, err
		}
		p, err := f.WriteAllPlan(c, 0, wire)
		if err != nil {
			return nil, err
		}
		if err := p.Run(); err != nil {
			return nil, err
		}
		var rr ReadResult
		p, err = f.ReadAllPlan(c, 0, len(mine), &rr)
		if err != nil {
			return nil, err
		}
		if err := p.Run(); err != nil {
			return nil, err
		}
		if rr.Got != len(wire) || !bytes.Equal(rr.Wire, wire) {
			return nil, fmt.Errorf("rank %d: strided round trip mismatch (got %d)", c.Rank, rr.Got)
		}
		return nil, nil
	})

	// Every matrix element must be present exactly once with its
	// owner's pattern.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != side*side*8 {
		t.Fatalf("file holds %d bytes, want %d", len(raw), side*side*8)
	}
	m := make([]float64, side*side)
	if _, err := dtype.Unpack(raw, m, 0, len(m), dtype.BasicType(dtype.F64)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < side; r++ {
		for col := 0; col < side; col++ {
			owner := col / cpr
			localIdx := r*cpr + (col - owner*cpr)
			want := float64(owner*10000 + localIdx)
			if m[r*side+col] != want {
				t.Fatalf("matrix[%d,%d] = %v, want %v", r, col, m[r*side+col], want)
			}
		}
	}
}
