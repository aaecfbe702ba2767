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
	for _, n := range []int{1, 2, 3, 5, 8, 9} {
		for root := 0; root < n; root++ {
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
	const n = 4
	for _, in := range []struct {
		root int
		size func(r int) int
	}{
		{0, func(r int) int { return r + 1 }},
		{3, func(r int) int { return r + 1 }},
		{0, func(r int) int { return r % 2 * (r + 1) }}, // even ranks' blocks are empty
	} {
		results := runGroup(t, n, func(c *Comm) (any, error) {
			mine := bytes.Repeat([]byte{byte(c.Rank)}, in.size(c.Rank))
			return c.Gather(in.root, mine)
		})
		for r, b := range results[in.root].([][]byte) {
			if len(b) != in.size(r) || !bytes.Equal(b, bytes.Repeat([]byte{byte(r)}, len(b))) {
				t.Fatalf("root %d: rank %d block: %v", in.root, r, b)
			}
		}
		for r := 0; r < n; r++ {
			if r != in.root && results[r] != nil && results[r].([][]byte) != nil {
				t.Fatalf("root %d: non-root rank %d received blocks", in.root, r)
			}
		}
	}
}

// TestBlocksAreTheCallersOnReturn: what a caller hands a collective is
// its own again when the call returns — a member's Gather block, root's
// Scatter parts, a non-commutative Reduce's accumulator — whatever the
// block's size (inline, eager or rendezvous at the default eager
// limit). The in-process devices pass frames by reference, so a
// schedule that shipped these without a private copy would let the
// caller's next write reach what another member holds. Every caller
// scribbles right after its call returns, and what the others got is
// checked after a barrier, by which every scribble is done.
func TestBlocksAreTheCallersOnReturn(t *testing.T) {
	block := func(r, size int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(r*31 + i)
		}
		return b
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] ^= 0xff
		}
	}
	// later folds as inout = 3*in + inout: the order of the operands shows.
	later := NewOp("later", false, func(in, inout any) error {
		a, b := in.([]uint8), inout.([]uint8)
		for i := range b {
			b[i] += 3 * a[i]
		}
		return nil
	})
	for _, n := range []int{2, 4, 7} {
		for root := 0; root < n; root++ {
			for _, size := range []int{8, 1 << 10, 64<<10 + 8, 200 << 10} {
				want := block(0, size)
				for r := 1; r < n; r++ {
					next := block(r, size)
					if err := later.user(want, next); err != nil {
						t.Fatal(err)
					}
					want = next
				}
				runGroupEager(t, n, 0, false, func(c *Comm) (any, error) {
					// A failed check is kept, not returned at once, so every
					// member goes on to make every call and none is left
					// waiting for it.
					var bad error
					check := func(ok bool, what string) {
						if !ok && bad == nil {
							bad = fmt.Errorf("n=%d root=%d %d B, rank %d: %s", n, root, size, c.Rank, what)
						}
					}
					mine := block(c.Rank, size)
					blocks, err := c.Gather(root, mine)
					if err != nil {
						return nil, err
					}
					scribble(mine)
					if err := c.Barrier(); err != nil {
						return nil, err
					}
					for r, b := range blocks {
						check(r == root || bytes.Equal(b, block(r, size)), fmt.Sprintf("gathered block %d was written by its sender", r))
					}

					var parts [][]byte
					if c.Rank == root {
						for r := 0; r < n; r++ {
							parts = append(parts, block(r, size))
						}
					}
					got, err := c.Scatter(root, parts)
					if err != nil {
						return nil, err
					}
					for r, b := range parts {
						if r != root {
							scribble(b)
						}
					}
					if err := c.Barrier(); err != nil {
						return nil, err
					}
					check(bytes.Equal(got, block(c.Rank, size)), "the scattered block was written by root")

					acc := block(c.Rank, size)
					if err := runPlan(c.ReducePlan(root, &acc, later, dtype.U8)); err != nil {
						return nil, err
					}
					if c.Rank != root {
						scribble(acc)
					}
					if err := c.Barrier(); err != nil {
						return nil, err
					}
					check(c.Rank != root || bytes.Equal(acc, want), "the ordered reduction read a written accumulator")
					return nil, bad
				})
			}
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
