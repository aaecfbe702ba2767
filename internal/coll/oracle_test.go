package coll

import (
	"fmt"

	"gompi/internal/dtype"
)

// The closure-based reduction operations the byte-native kernels
// replaced, kept as the oracle the kernels are property-tested against:
// every predefined operation as an ApplyFn over dense typed slices,
// arithmetic routed through int64/float64 closures one element at a
// time. Slow and allocation-happy by design; correct by inspection.

func refApplyNum[T dtype.Fixed](in, inout []T, f func(a, b T) T) {
	for i := range inout {
		inout[i] = f(in[i], inout[i])
	}
}

// refNumOp builds an op defined on all numeric classes.
func refNumOp(name string, fi func(a, b int64) int64, ff func(a, b float64) float64) ApplyFn {
	return func(in, inout any) error {
		switch io := inout.(type) {
		case []byte:
			refApplyNum(in.([]byte), io, func(a, b byte) byte { return byte(fi(int64(a), int64(b))) })
		case []int16:
			refApplyNum(in.([]int16), io, func(a, b int16) int16 { return int16(fi(int64(a), int64(b))) })
		case []int32:
			refApplyNum(in.([]int32), io, func(a, b int32) int32 { return int32(fi(int64(a), int64(b))) })
		case []int64:
			refApplyNum(in.([]int64), io, fi)
		case []float32:
			refApplyNum(in.([]float32), io, func(a, b float32) float32 { return float32(ff(float64(a), float64(b))) })
		case []float64:
			refApplyNum(in.([]float64), io, ff)
		default:
			return fmt.Errorf("coll: op %s undefined on %T", name, inout)
		}
		return nil
	}
}

// refIntOp builds an op defined on integer classes only (bitwise
// family); given fb it also accepts booleans, and fi then treats
// integers by the C convention (non-zero is true).
func refIntOp(name string, fi func(a, b int64) int64, fb func(a, b bool) bool) ApplyFn {
	return func(in, inout any) error {
		switch io := inout.(type) {
		case []bool:
			if fb == nil {
				return fmt.Errorf("coll: op %s undefined on %T", name, inout)
			}
			for i := range io {
				io[i] = fb(in.([]bool)[i], io[i])
			}
		case []byte:
			refApplyNum(in.([]byte), io, func(a, b byte) byte { return byte(fi(int64(a), int64(b))) })
		case []int16:
			refApplyNum(in.([]int16), io, func(a, b int16) int16 { return int16(fi(int64(a), int64(b))) })
		case []int32:
			refApplyNum(in.([]int32), io, func(a, b int32) int32 { return int32(fi(int64(a), int64(b))) })
		case []int64:
			refApplyNum(in.([]int64), io, fi)
		default:
			return fmt.Errorf("coll: op %s undefined on %T", name, inout)
		}
		return nil
	}
}

func refLogicalOp(name string, fb func(a, b bool) bool) ApplyFn {
	toI := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	return refIntOp(name, func(a, b int64) int64 { return toI(fb(a != 0, b != 0)) }, fb)
}

func refApplyLoc[T dtype.Fixed](in, inout []T, max bool) {
	for i := 0; i+1 < len(inout); i += 2 {
		a, ai := in[i], in[i+1]
		b, bi := inout[i], inout[i+1]
		better := a > b
		if !max {
			better = a < b
		}
		// On equal values MPI selects the minimum index.
		if better || (a == b && ai < bi) {
			inout[i], inout[i+1] = a, ai
		}
	}
}

func refLocOp(name string, max bool) ApplyFn {
	return func(in, inout any) error {
		switch io := inout.(type) {
		case []byte:
			refApplyLoc(in.([]byte), io, max)
		case []int16:
			refApplyLoc(in.([]int16), io, max)
		case []int32:
			refApplyLoc(in.([]int32), io, max)
		case []int64:
			refApplyLoc(in.([]int64), io, max)
		case []float32:
			refApplyLoc(in.([]float32), io, max)
		case []float64:
			refApplyLoc(in.([]float64), io, max)
		default:
			return fmt.Errorf("coll: op %s undefined on %T", name, inout)
		}
		return nil
	}
}

func refMaxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func refMinI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func refMaxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func refMinF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// oracle pairs every predefined operation with its reference.
var oracle = []struct {
	op  *Op
	ref ApplyFn
}{
	{Sum, refNumOp("MPI_SUM", func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b })},
	{Prod, refNumOp("MPI_PROD", func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b })},
	{Max, refNumOp("MPI_MAX", refMaxI, refMaxF)},
	{Min, refNumOp("MPI_MIN", refMinI, refMinF)},
	{Land, refLogicalOp("MPI_LAND", func(a, b bool) bool { return a && b })},
	{Lor, refLogicalOp("MPI_LOR", func(a, b bool) bool { return a || b })},
	{Lxor, refLogicalOp("MPI_LXOR", func(a, b bool) bool { return a != b })},
	{Band, refIntOp("MPI_BAND", func(a, b int64) int64 { return a & b }, nil)},
	{Bor, refIntOp("MPI_BOR", func(a, b int64) int64 { return a | b }, nil)},
	{Bxor, refIntOp("MPI_BXOR", func(a, b int64) int64 { return a ^ b }, nil)},
	{MaxLoc, refLocOp("MPI_MAXLOC", true)},
	{MinLoc, refLocOp("MPI_MINLOC", false)},
}
