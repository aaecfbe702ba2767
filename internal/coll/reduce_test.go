package coll

import (
	"fmt"
	"math"
	"reflect"
	"testing"
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

// doublingSum computes, serially, what recursive doubling with the
// non-power-of-two pre-fold leaves on every member: the same partners
// and the same (lower, higher) operand order as addAllreduceSteps.
func doublingSum(vals []float64) float64 {
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
			acc = append(acc, vals[r-1]+vals[r])
		default:
			acc = append(acc, vals[r])
		}
	}
	for mask := 1; mask < p2; mask <<= 1 {
		next := make([]float64, p2)
		for nr := range acc {
			lo, hi := nr&^mask, nr|mask
			next[nr] = acc[lo] + acc[hi]
		}
		acc = next
	}
	return acc[0]
}

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
		want := doublingSum(vals)
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

// TestBytesReducedCounter: the pvar grows by exactly the bytes each
// kernel call folded — two rounds of recursive doubling at 4 ranks fold
// the operand twice per member.
func TestBytesReducedCounter(t *testing.T) {
	const n, elems = 4, 32 << 10
	runGroup(t, n, func(c *Comm) (any, error) {
		mine := make([]float64, elems)
		before := c.vars().reduced.Load()
		if _, err := c.Allreduce(mine, Sum); err != nil {
			return nil, err
		}
		if got, want := c.vars().reduced.Load()-before, uint64(2*8*elems); got != want {
			return nil, fmt.Errorf("coll.bytes_reduced grew by %d, want %d", got, want)
		}
		return nil, nil
	})
}
