package coll

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"gompi/internal/core"
	"gompi/internal/dtype"
	"gompi/internal/transport"
)

// runGroup executes fn concurrently on n fresh ranks and returns
// per-rank results.
func runGroup(t *testing.T, n int, fn func(c *Comm) (any, error)) []any {
	t.Helper()
	return runGroupEager(t, n, 256, false, fn)
}

// runGroupEager is runGroup under a chosen eager limit — which is also
// where a large allreduce changes schedule. A sealed job's first
// endpoint is claimed and the job sealed before the engines claim
// theirs (transport.Job.Direct), so it has no islands and its switch to
// halving + doubling is at eight eager limits (halves).
func runGroupEager(t *testing.T, n, eager int, sealed bool, fn func(c *Comm) (any, error)) []any {
	t.Helper()
	devs := transport.NewShmJob(n, 0)
	if sealed {
		devs[0].Claim().Direct()
	}
	procs := make([]*core.Proc, n)
	for i, d := range devs {
		procs[i] = core.NewProc(d, core.Config{EagerLimit: eager})
	}
	defer func() {
		for _, p := range procs {
			p.Close()
		}
	}()
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
			c := &Comm{
				P:     procs[rank],
				Ctx:   1,
				Rank:  rank,
				Size:  n,
				World: func(gr int) int { return group[gr] },
			}
			results[rank], errs[rank] = fn(c)
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

func TestBarrierAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		runGroup(t, n, func(c *Comm) (any, error) {
			for i := 0; i < 3; i++ {
				if err := c.Barrier(); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5} {
		for root := 0; root < n; root++ {
			root := root
			results := runGroup(t, n, func(c *Comm) (any, error) {
				var data []byte
				if c.Rank == root {
					data = []byte(fmt.Sprintf("from-%d", root))
				}
				return c.Bcast(root, data)
			})
			want := fmt.Sprintf("from-%d", root)
			for r, res := range results {
				if string(res.([]byte)) != want {
					t.Fatalf("n=%d root=%d rank=%d: got %q", n, root, r, res)
				}
			}
		}
	}
}

func TestGatherScatterInverse(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6} {
		for root := 0; root < n; root += 2 {
			root := root
			results := runGroup(t, n, func(c *Comm) (any, error) {
				mine := []byte{byte(c.Rank), byte(c.Rank * 2)}
				blocks, err := c.Gather(root, mine)
				if err != nil {
					return nil, err
				}
				// Root scatters the same blocks back.
				back, err := c.Scatter(root, blocks)
				if err != nil {
					return nil, err
				}
				return back, nil
			})
			for r, res := range results {
				want := []byte{byte(r), byte(r * 2)}
				if !bytes.Equal(res.([]byte), want) {
					t.Fatalf("n=%d root=%d rank=%d: got %v", n, root, r, res)
				}
			}
		}
	}
}

func TestGatherVariableSizes(t *testing.T) {
	results := runGroup(t, 4, func(c *Comm) (any, error) {
		mine := bytes.Repeat([]byte{byte(c.Rank)}, c.Rank+1)
		return c.Gather(0, mine)
	})
	blocks := results[0].([][]byte)
	for r, b := range blocks {
		if len(b) != r+1 {
			t.Fatalf("rank %d block: %v", r, b)
		}
	}
	for r := 1; r < 4; r++ {
		if results[r] != nil && results[r].([][]byte) != nil {
			t.Fatalf("non-root rank %d received blocks", r)
		}
	}
}

func TestAllgatherEveryoneSeesAll(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		results := runGroup(t, n, func(c *Comm) (any, error) {
			return c.Allgather([]byte{byte(c.Rank + 1)})
		})
		for r, res := range results {
			blocks := res.([][]byte)
			for j, b := range blocks {
				if len(b) != 1 || b[0] != byte(j+1) {
					t.Fatalf("n=%d rank=%d slot %d: %v", n, r, j, b)
				}
			}
		}
	}
}

func TestAlltoallTransposition(t *testing.T) {
	const n = 4
	results := runGroup(t, n, func(c *Comm) (any, error) {
		parts := make([][]byte, n)
		for j := range parts {
			parts[j] = []byte{byte(c.Rank*10 + j)}
		}
		return c.Alltoall(parts)
	})
	for r, res := range results {
		got := res.([][]byte)
		for j := range got {
			if got[j][0] != byte(j*10+r) {
				t.Fatalf("rank %d slot %d: got %d", r, j, got[j][0])
			}
		}
	}
}

func TestReduceSumMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		results := runGroup(t, n, func(c *Comm) (any, error) {
			mine := []int32{int32(c.Rank + 1), int32(c.Rank * c.Rank)}
			return c.Reduce(0, mine, Sum)
		})
		var w0, w1 int32
		for r := 0; r < n; r++ {
			w0 += int32(r + 1)
			w1 += int32(r * r)
		}
		got := results[0].([]int32)
		if got[0] != w0 || got[1] != w1 {
			t.Fatalf("n=%d: got %v, want [%d %d]", n, got, w0, w1)
		}
	}
}

// scribbledSum is a commutative user operation that, having folded,
// overwrites the operand that is not its result — which a kernel's
// caller must allow for (see Kernel): in a large allreduce that operand
// is a window a partner lent, exclusively the borrower's until released
// and dead to its owner until the allgather refills it.
var scribbledSum = NewOp("scribbled-sum", true, func(in, inout any) error {
	if err := oracle[0].ref(in, inout); err != nil {
		return err
	}
	v := reflect.ValueOf(in)
	for i := 0; i < v.Len(); i++ {
		v.Index(i).SetZero()
	}
	return nil
})

// TestAllreduceMatchesReferenceProperty: on every fixed-size class,
// every operation defined on it — the predefined twelve and a user
// operation — gives, at every member, what folding the contributions in
// rank order through the reference implementation gives; for operands on
// both sides of the eager limit (256 bytes here), where the schedule
// changes, at group sizes 1…9. Values are small integers, so the
// reference's association does not matter.
func TestAllreduceMatchesReferenceProperty(t *testing.T) {
	classes := []dtype.Class{dtype.U8, dtype.I16, dtype.I32, dtype.I64, dtype.F32, dtype.F64, dtype.Bool}
	ops := append([]struct {
		op  *Op
		ref ApplyFn
	}{{scribbledSum, oracle[0].ref}}, oracle...)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		cls := classes[rng.Intn(len(classes))]
		o := ops[rng.Intn(len(ops))]
		for !o.op.DefinedOn(cls) || o.ref(dtype.MakeDense(cls, 2), dtype.MakeDense(cls, 2)) != nil {
			o = ops[rng.Intn(len(ops))]
		}
		// Whole (value, index) pairs; from a few bytes to a few eager limits.
		count := 2 * (1 + rng.Intn(3*256/cls.WireSize()))
		if rng.Intn(4) == 0 {
			count = 2 * (1 + rng.Intn(8))
		}
		vals := make([]any, n)
		for r := range vals {
			v := reflect.ValueOf(dtype.MakeDense(cls, count))
			for i := 0; i < count; i++ {
				switch e := v.Index(i); e.Kind() {
				case reflect.Bool:
					e.SetBool(rng.Intn(2) == 0)
				case reflect.Float32, reflect.Float64:
					e.SetFloat(float64(rng.Intn(4) - 1))
				case reflect.Uint8:
					e.SetUint(uint64(rng.Intn(3)))
				default:
					e.SetInt(int64(rng.Intn(4) - 1))
				}
			}
			vals[r] = v.Interface()
		}
		clone := func(v any) any {
			c := reflect.ValueOf(dtype.MakeDense(cls, count))
			reflect.Copy(c, reflect.ValueOf(v))
			return c.Interface()
		}
		want := clone(vals[0])
		for _, v := range vals[1:] {
			next := clone(v)
			if err := o.ref(want, next); err != nil {
				t.Fatal(err)
			}
			want = next
		}
		results := runGroup(t, n, func(c *Comm) (any, error) {
			mine := clone(vals[c.Rank])
			res, err := c.Allreduce(mine, o.op)
			if err == nil && o.op != scribbledSum && !reflect.DeepEqual(mine, vals[c.Rank]) {
				err = fmt.Errorf("%s on %s: the contribution was written", o.op, cls)
			}
			return res, err
		})
		for r, res := range results {
			if !reflect.DeepEqual(res, want) {
				t.Logf("%s on %d×%s, n=%d, rank %d: %v, want %v", o.op, count, cls, n, r, res, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestNonCommutativeOpReducesInRankOrder(t *testing.T) {
	// Matrix-multiply-like op: string concatenation encoded as bytes is
	// simplest, but ops work on numeric slices — use a "first wins
	// digit append": inout = in*10 + inout, which is order-sensitive.
	appendOp := NewOp("append", false, func(in, inout any) error {
		a := in.([]int64)
		b := inout.([]int64)
		for i := range b {
			b[i] = a[i]*10 + b[i]
		}
		return nil
	})
	for _, n := range []int{2, 3, 5} {
		results := runGroup(t, n, func(c *Comm) (any, error) {
			return c.Allreduce([]int64{int64(c.Rank + 1)}, appendOp)
		})
		var want int64
		for r := 0; r < n; r++ {
			want = want*10 + int64(r+1)
		}
		for rank, res := range results {
			if got := res.([]int64)[0]; got != want {
				t.Fatalf("n=%d rank %d: got %d, want %d (rank-order violated)", n, rank, got, want)
			}
		}
	}
}

func TestScanPrefix(t *testing.T) {
	const n = 5
	results := runGroup(t, n, func(c *Comm) (any, error) {
		return c.Scan([]int32{int32(c.Rank + 1)}, Sum)
	})
	for r, res := range results {
		want := int32((r + 1) * (r + 2) / 2)
		if got := res.([]int32)[0]; got != want {
			t.Fatalf("rank %d: scan %d, want %d", r, got, want)
		}
	}
}

func TestReduceScatterSegments(t *testing.T) {
	const n = 3
	counts := []int{1, 2, 3}
	results := runGroup(t, n, func(c *Comm) (any, error) {
		mine := []int32{1, 2, 3, 4, 5, 6} // same on every rank
		return c.ReduceScatter(mine, counts, Sum)
	})
	at := 0
	for r, res := range results {
		got := res.([]int32)
		if len(got) != counts[r] {
			t.Fatalf("rank %d: %d elements, want %d", r, len(got), counts[r])
		}
		for i := range got {
			want := int32((at + i + 1) * n)
			if got[i] != want {
				t.Fatalf("rank %d elem %d: got %d, want %d", r, i, got[i], want)
			}
		}
		at += counts[r]
	}
}

func TestMaxLocMinLoc(t *testing.T) {
	const n = 4
	results := runGroup(t, n, func(c *Comm) (any, error) {
		// Pair (value, index): value peaks at rank 2.
		v := float64(10 - (c.Rank-2)*(c.Rank-2))
		return c.Allreduce([]float64{v, float64(c.Rank)}, MaxLoc)
	})
	for r, res := range results {
		got := res.([]float64)
		if got[0] != 10 || got[1] != 2 {
			t.Fatalf("rank %d: maxloc %v, want [10 2]", r, got)
		}
	}
	// Tie: MPI picks the minimum index.
	results = runGroup(t, n, func(c *Comm) (any, error) {
		return c.Allreduce([]int32{7, int32(c.Rank)}, MaxLoc)
	})
	for r, res := range results {
		got := res.([]int32)
		if got[0] != 7 || got[1] != 0 {
			t.Fatalf("rank %d: tie maxloc %v, want [7 0]", r, got)
		}
	}
	results = runGroup(t, n, func(c *Comm) (any, error) {
		return c.Allreduce([]int32{int32(c.Rank + 5), int32(c.Rank)}, MinLoc)
	})
	for r, res := range results {
		got := res.([]int32)
		if got[0] != 5 || got[1] != 0 {
			t.Fatalf("rank %d: minloc %v", r, got)
		}
	}
}

func TestLogicalAndBitwiseOps(t *testing.T) {
	const n = 3
	results := runGroup(t, n, func(c *Comm) (any, error) {
		return c.Allreduce([]bool{true, c.Rank != 1, false}, Land)
	})
	for _, res := range results {
		got := res.([]bool)
		if got[0] != true || got[1] != false || got[2] != false {
			t.Fatalf("land: %v", got)
		}
	}
	results = runGroup(t, n, func(c *Comm) (any, error) {
		return c.Allreduce([]int32{int32(1 << c.Rank)}, Bor)
	})
	for _, res := range results {
		if got := res.([]int32)[0]; got != 7 {
			t.Fatalf("bor: %d, want 7", got)
		}
	}
	results = runGroup(t, n, func(c *Comm) (any, error) {
		return c.Allreduce([]int64{int64(c.Rank)}, Bxor)
	})
	for _, res := range results {
		if got := res.([]int64)[0]; got != 0^1^2 {
			t.Fatalf("bxor: %d", got)
		}
	}
}

func TestOpClassErrors(t *testing.T) {
	if _, err := Band.Kernel(dtype.F64); !errors.Is(err, ErrUndefined) {
		t.Fatalf("bitwise op on floats: %v", err)
	}
	if _, err := Sum.Kernel(dtype.Bool); !errors.Is(err, ErrUndefined) {
		t.Fatalf("sum on booleans: %v", err)
	}
	if _, err := MaxLoc.Kernel(dtype.Obj); !errors.Is(err, ErrUndefined) {
		t.Fatalf("maxloc on objects: %v", err)
	}
	user := NewOp("user", true, func(in, inout any) error { return nil })
	for cls := dtype.U8; cls <= dtype.Obj; cls++ {
		if _, err := user.Kernel(cls); err != nil {
			t.Fatalf("user op on %s: %v", cls, err)
		}
	}
	// The collective refuses before any message moves.
	runGroup(t, 2, func(c *Comm) (any, error) {
		if _, err := c.Allreduce([]float64{1}, Band); !errors.Is(err, ErrUndefined) {
			return nil, fmt.Errorf("allreduce(BAND, float64): %v", err)
		}
		return c.Allreduce([]int32{1}, Band) // instance numbers still aligned
	})
}

func TestAgreeContextBase(t *testing.T) {
	const n = 4
	results := runGroup(t, n, func(c *Comm) (any, error) {
		b1, err := c.AgreeContextBase()
		if err != nil {
			return nil, err
		}
		b2, err := c.AgreeContextBase()
		if err != nil {
			return nil, err
		}
		return []int32{b1, b2}, nil
	})
	first := results[0].([]int32)
	if first[1] != first[0]+2 {
		t.Fatalf("second base %d, want %d", first[1], first[0]+2)
	}
	for r, res := range results {
		got := res.([]int32)
		if got[0] != first[0] || got[1] != first[1] {
			t.Fatalf("rank %d disagrees: %v vs %v", r, got, first)
		}
	}
}

func TestBundleRoundTrip(t *testing.T) {
	in := map[int][]byte{0: []byte("a"), 3: []byte("bcd"), 7: nil}
	enc := encodeBundle(in)
	out := make(map[int][]byte)
	if err := decodeBundle(enc, out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || string(out[3]) != "bcd" || len(out[7]) != 0 {
		t.Fatalf("bundle roundtrip: %v", out)
	}
	if err := decodeBundle([]byte{1}, out); err == nil {
		t.Fatal("short bundle must error")
	}
}
