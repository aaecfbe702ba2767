package coll

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"gompi/internal/dtype"
)

// matMul is a non-commutative user operation: each operand is a row of
// 2×2 int64 matrices (four elements apiece), folded as in·inout.
var matMul = NewOp("matmul2x2", false, func(in, inout any) error {
	a, b := in.([]int64), inout.([]int64)
	for i := 0; i+3 < len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] =
			a[i]*b[i]+a[i+1]*b[i+2], a[i]*b[i+1]+a[i+1]*b[i+3],
			a[i+2]*b[i]+a[i+3]*b[i+2], a[i+2]*b[i+1]+a[i+3]*b[i+3]
	}
	return nil
})

// rankMats is rank r's contribution: two matrices with no symmetry
// between them, so any swapped pair of factors shows.
func rankMats(r int) []int64 {
	k := int64(r + 1)
	return []int64{1, k, 0, 1, k, 1, 1, 0}
}

// productOf folds ranks lo..hi-1 serially, in rank order.
func productOf(lo, hi int) []int64 {
	acc := rankMats(lo)
	for r := lo + 1; r < hi; r++ {
		next := rankMats(r)
		matMul.user(acc, next) //nolint:errcheck // matMul never fails
		acc = next
	}
	return acc
}

// TestNonCommutativeOrderEveryCollective: Reduce, Allreduce, Scan and
// Exscan fold a non-commutative user operation strictly in rank order
// at every group size, power of two or not.
func TestNonCommutativeOrderEveryCollective(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7} {
		root := n / 2
		results := runGroup(t, n, func(c *Comm) (any, error) {
			red, err := c.Reduce(root, rankMats(c.Rank), matMul)
			if err != nil {
				return nil, err
			}
			all, err := c.Allreduce(rankMats(c.Rank), matMul)
			if err != nil {
				return nil, err
			}
			scan, err := c.Scan(rankMats(c.Rank), matMul)
			if err != nil {
				return nil, err
			}
			exscan, err := c.Exscan(rankMats(c.Rank), matMul)
			if err != nil {
				return nil, err
			}
			return []any{red, all, scan, exscan}, nil
		})
		for r, res := range results {
			got := res.([]any)
			want := []any{nil, productOf(0, n), productOf(0, r+1), nil}
			if r == root {
				want[0] = productOf(0, n)
			}
			if r > 0 {
				want[3] = productOf(0, r)
			}
			for i, name := range []string{"reduce", "allreduce", "scan", "exscan"} {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("n=%d rank %d %s: %v, want %v", n, r, name, got[i], want[i])
				}
			}
		}
	}
}

// doublingFold computes, serially, what recursive doubling with the
// non-power-of-two pre-fold leaves on every member: the same partners
// and the same (lower, higher) operand order as addAllreduceSteps —
// partners at distance 1 first, then 2, 4, …. The halving + doubling
// schedule of large operands must associate every element the same way.
func doublingFold(vals []float64, op func(lo, hi float64) float64) float64 {
	return pairwiseFold(vals, op, false)
}

// pairwiseFold is doublingFold with the order of the distances as a
// parameter: farFirst pairs partners at distance p2/2 first — the
// textbook recursive halving, which is NOT what the schedules do.
func pairwiseFold(vals []float64, op func(lo, hi float64) float64, farFirst bool) float64 {
	n := len(vals)
	p2 := 1
	for p2*2 <= n {
		p2 *= 2
	}
	rem := n - p2
	acc := make([]float64, 0, p2)
	for r := 0; r < n; r++ {
		switch {
		case r < 2*rem && r%2 == 0: // folds into its odd neighbour
		case r < 2*rem:
			acc = append(acc, op(vals[r-1], vals[r]))
		default:
			acc = append(acc, vals[r])
		}
	}
	var masks []int
	for mask := 1; mask < p2; mask <<= 1 {
		masks = append(masks, mask)
	}
	if farFirst {
		slices.Reverse(masks)
	}
	for _, mask := range masks {
		next := make([]float64, p2)
		for nr := range acc {
			lo, hi := nr&^mask, nr|mask
			next[nr] = op(acc[lo], acc[hi])
		}
		acc = next
	}
	return acc[0]
}

func addF(a, b float64) float64 { return a + b }
func mulF(a, b float64) float64 { return a * b }

// TestAllreduceSumBitExact: a float SUM allreduce is bit-identical on
// every member to the recursive-doubling association computed serially
// — with summands chosen so that any other association rounds
// differently.
func TestAllreduceSumBitExact(t *testing.T) {
	for _, vals := range [][]float64{
		{0.1, 0.2, 0.3},
		{1e16, 3, -1e16, 5},
		{1e16, 3, -1e16, 5, 0.3, 1e-3},
	} {
		n := len(vals)
		want := doublingFold(vals, addF)
		var leftToRight, rightToLeft float64
		for i := range vals {
			leftToRight += vals[i]
			rightToLeft = vals[n-1-i] + rightToLeft
		}
		if leftToRight == want && rightToLeft == want {
			t.Fatalf("n=%d: summands do not distinguish associations (%v)", n, want)
		}
		results := runGroup(t, n, func(c *Comm) (any, error) {
			return c.Allreduce([]float64{vals[c.Rank], -vals[c.Rank]}, Sum)
		})
		for r, res := range results {
			got := res.([]float64)
			if math.Float64bits(got[0]) != math.Float64bits(want) || math.Float64bits(got[1]) != math.Float64bits(-want) {
				t.Fatalf("n=%d rank %d: %v, want [%v %v]", n, r, got, want, -want)
			}
		}
	}
}

// sensitive are values whose float sum and product round differently
// under different associations; element e of rank r's operand in the
// test below is one of them, chosen by (e, r).
var sensitive = []float64{1e16, 3, -1e16, 5, 0.3, 1e-3, 0.1, -0.7, 1 + 1e-9}

func sensitiveAt(e, r int) float64 {
	v := sensitive[(r+e)%len(sensitive)]
	if e%3 == 2 {
		v = -v
	}
	return v
}

// TestAllreduceBitExactAboveTheSwitch: above the eager limit, where the
// schedule is reduce-scatter + allgather, every element of a float SUM
// or PROD is still bit-identical, on every member, to the
// recursive-doubling association — for every group size 2…9, vector
// lengths that the halving splits evenly, unevenly and primely, and
// lengths too short to split (fewer elements than p2: the doubling
// schedule itself must run). The reference with the distances in the
// textbook order (p2/2 first) differs on these values, so a schedule
// that halved that way round would fail here. The message schedules run
// on a job sealed without islands; the same job unsealed folds every
// call through the island, which must give the same bits.
func TestAllreduceBitExactAboveTheSwitch(t *testing.T) {
	for _, fam := range []struct {
		op  *Op
		ref func(a, b float64) float64
	}{{Sum, addF}, {Prod, mulF}} {
		for n := 2; n <= 9; n++ {
			p2 := 1
			for p2*2 <= n {
				p2 *= 2
			}
			for _, count := range []int{5 * p2, 5*p2 + 1, 61, p2 - 1, 3} {
				want := make([]float64, count)
				distinguishes := false
				for e := range want {
					vals := make([]float64, n)
					for r := range vals {
						vals[r] = sensitiveAt(e, r)
					}
					want[e] = doublingFold(vals, fam.ref)
					if pairwiseFold(vals, fam.ref, true) != want[e] {
						distinguishes = true
					}
				}
				if p2 >= 4 && count >= p2 && !distinguishes {
					t.Fatalf("%s n=%d count=%d: no element tells distance-1-first from distance-p2/2-first", fam.op, n, count)
				}
				for _, sealed := range []bool{true, false} {
					// eager 2: on the sealed job "large" is eight limits
					// (16 bytes) up, so even the vectors shorter than p2
					// are large.
					var folds atomic.Uint64
					results := runGroupEager(t, n, 2, sealed, func(c *Comm) (any, error) {
						mine := make([]float64, count)
						for e := range mine {
							mine[e] = sensitiveAt(e, c.Rank)
						}
						before, folded := c.P.Stats().SendsLent.Load(), c.vars().folds.Load()
						res, err := c.Allreduce(mine, fam.op)
						if halved := c.P.Stats().SendsLent.Load() > before; err == nil && c.Rank == n-1 && halved != (sealed && count >= p2) {
							err = fmt.Errorf("count %d, p2 %d, sealed %v: halving schedule ran = %v", count, p2, sealed, halved)
						}
						folds.Add(c.vars().folds.Load() - folded)
						return res, err
					})
					if got := folds.Load(); got != map[bool]uint64{false: 1}[sealed] {
						t.Fatalf("%s n=%d count=%d sealed %v: %d island folds", fam.op, n, count, sealed, got)
					}
					for r, res := range results {
						for e, got := range res.([]float64) {
							if math.Float64bits(got) != math.Float64bits(want[e]) {
								t.Fatalf("%s n=%d count=%d sealed %v rank %d element %d: %v, want %v", fam.op, n, count, sealed, r, e, got, want[e])
							}
						}
					}
				}
			}
		}
	}
}

// TestBytesReducedCounter: the pvar grows by exactly the bytes each
// kernel call folded. Among a power of two of members, p2, recursive
// doubling folds the whole operand log2(p2) times on every member; above
// the eager limit the reduce-scatter folds half of what is left each
// round, (1 - 1/p2) of the operand in all.
func TestBytesReducedCounter(t *testing.T) {
	for _, tc := range []struct{ n, elems, want int }{
		{4, 32 << 10, 8 * (32 << 10) * 3 / 4},
		{8, 32 << 10, 8 * (32 << 10) * 7 / 8},
		{4, 16, 2 * 8 * 16}, // 128 bytes: below the switch
		{8, 16, 3 * 8 * 16},
	} {
		runGroup(t, tc.n, func(c *Comm) (any, error) {
			mine := make([]float64, tc.elems)
			before := c.vars().reduced.Load()
			if _, err := c.Allreduce(mine, Sum); err != nil {
				return nil, err
			}
			if got := c.vars().reduced.Load() - before; got != uint64(tc.want) {
				return nil, fmt.Errorf("n=%d, %d elements: coll.bytes_reduced grew by %d, want %d", tc.n, tc.elems, got, tc.want)
			}
			return nil, nil
		})
	}
}

// TestIslandFoldMisalignedViews: AllreducePlan on a contribution and an
// accumulator that lie one byte off their class's alignment, where the
// island's walk cannot take the tree steps and every step is the
// kernel's, gives tcp's result bits on every member and leaves the
// contribution alone: DOUBLE SUM (values spread over 40 binades, so
// another association rounds differently) and INT BXOR, at np 3–5, at
// one chunk, one chunk and a tail, and two chunks and a short third.
func TestIslandFoldMisalignedViews(t *testing.T) {
	for _, tc := range []struct {
		op  *Op
		cls dtype.Class
		gen func(rng *rand.Rand, n int) []byte
	}{
		{Sum, dtype.F64, func(rng *rand.Rand, n int) []byte {
			v := make([]float64, n)
			for i := range v {
				v[i] = (rng.Float64() - 0.5) * math.Pow(2, float64(rng.Intn(40)-20))
			}
			return packDense(t, dtype.F64, v)
		}},
		{Bxor, dtype.I32, func(rng *rand.Rand, n int) []byte {
			v := make([]int32, n)
			for i := range v {
				v[i] = int32(rng.Uint32())
			}
			return packDense(t, dtype.I32, v)
		}},
	} {
		es := tc.cls.WireSize()
		for np := 3; np <= 5; np++ {
			for _, size := range []int{islandChunk, islandChunk + es, 2*islandChunk + 100*es} {
				var folds atomic.Uint64
				allreduce := func(c *Comm) (any, error) {
					mine := tc.gen(rand.New(rand.NewSource(int64(size+c.Rank))), size/es)
					src, acc := window(mine, 1), window(make([]byte, size), 1)
					p, err := c.AllreducePlan(&acc, &src, size/es, es, tc.op, tc.cls)
					if err != nil {
						return nil, err
					}
					before := c.vars().folds.Load()
					if err := p.Run(); err != nil {
						return nil, err
					}
					folds.Add(c.vars().folds.Load() - before)
					if !bytes.Equal(src, mine) {
						return nil, fmt.Errorf("the contribution was written")
					}
					return acc, nil
				}
				want := agreeGroup(t, np, nil, allreduce)
				if folds.Load() != 0 {
					t.Fatalf("%s %s np %d: tcp folded on an island", tc.op, tc.cls, np)
				}
				got := runGroup(t, np, allreduce)
				if folds.Load() != 1 {
					t.Fatalf("%s %s np %d, %d bytes: %d island folds, want 1", tc.op, tc.cls, np, size, folds.Load())
				}
				for r := range got {
					if !bytes.Equal(got[r].([]byte), want[r].([]byte)) {
						t.Fatalf("%s %s np %d, %d bytes: rank %d differs from tcp's result", tc.op, tc.cls, np, size, r)
					}
				}
			}
		}
	}
}
