package typed

import (
	"unsafe"

	"gompi/mpi"
)

// Typed MINLOC/MAXLOC: the classic API reduces (value, index) pairs
// laid out as consecutive elements of a pair datatype (MPI.INT2,
// MPI.DOUBLE2, …), with the op/datatype agreement checked at runtime.
// Pair[T] and the pair entry points move that agreement to compile
// time: MinLoc[T]()/MaxLoc[T]() only instantiate against []Pair[T].

// PairElem admits the element types that have a predefined pair
// datatype (SHORT2/INT2/LONG2/FLOAT2/DOUBLE2). The index travels in the
// same class as the value, following the classic pair layout.
type PairElem interface {
	int16 | int32 | int64 | float32 | float64
}

// Pair is a value/index element for MINLOC/MAXLOC reductions. Its
// memory layout is exactly the classic flattened pair — two consecutive
// elements of T — so pair slices travel on the same wire format as the
// classic pair datatypes and interoperate with classic ranks.
type Pair[T PairElem] struct {
	Value T
	Index T
}

// PairOf builds a Pair from a value and an integer index.
func PairOf[T PairElem](v T, index int) Pair[T] {
	return Pair[T]{Value: v, Index: T(index)}
}

// MinLoc returns the MINLOC operation for Pair[T]: the elementwise
// minimum value, carrying the index of the member that contributed it
// (lowest index on ties, per the standard).
func MinLoc[T PairElem]() Op[Pair[T]] { return Op[Pair[T]]{mpi.MINLOC} }

// MaxLoc returns the MAXLOC operation for Pair[T] (see MinLoc).
func MaxLoc[T PairElem]() Op[Pair[T]] { return Op[Pair[T]]{mpi.MAXLOC} }

// pairType maps T to its predefined pair datatype.
func pairType[T PairElem]() *mpi.Datatype {
	var z T
	switch any(z).(type) {
	case int16:
		return mpi.SHORT2
	case int32:
		return mpi.INT2
	case int64:
		return mpi.LONG2
	case float32:
		return mpi.FLOAT2
	default:
		return mpi.DOUBLE2
	}
}

// flattenPairs reinterprets a pair slice as the classic flattened
// (value, index, value, index, …) dense slice. Pair[T] is two
// consecutive fields of one type, so the layouts coincide and no copy
// is needed.
func flattenPairs[T PairElem](ps []Pair[T]) []T {
	if len(ps) == 0 {
		return nil
	}
	return unsafe.Slice(&ps[0].Value, 2*len(ps))
}

// ReducePairs folds every member's pair slice elementwise with a
// MINLOC/MAXLOC op, leaving the result in recv at root (MPI_Reduce over
// a pair datatype). recv may be nil elsewhere.
func ReducePairs[T PairElem](c Comm, send, recv []Pair[T], op Op[Pair[T]], root int) error {
	return c.Intra().Reduce(flattenPairs(send), 0, flattenPairs(recv), 0, len(send), pairType[T](), op.op, root)
}

// AllreducePairs folds every member's pair slice elementwise with a
// MINLOC/MAXLOC op, leaving the result in recv on every member
// (MPI_Allreduce over a pair datatype).
func AllreducePairs[T PairElem](c Comm, send, recv []Pair[T], op Op[Pair[T]]) error {
	return c.Intra().Allreduce(flattenPairs(send), 0, flattenPairs(recv), 0, len(send), pairType[T](), op.op)
}

// AllreducePairOne reduces a single (value, index) pair with op and
// returns the winning pair on every member — "which member has the
// extreme value, and what is it" in one call.
func AllreducePairOne[T PairElem](c Comm, v Pair[T], op Op[Pair[T]]) (Pair[T], error) {
	send := []Pair[T]{v}
	recv := make([]Pair[T], 1)
	err := AllreducePairs(c, send, recv, op)
	return recv[0], err
}
