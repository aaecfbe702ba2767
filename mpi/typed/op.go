package typed

import "gompi/mpi"

// The reduction constraints admit exactly the native element types, so
// an Op[T] can only be instantiated for types whose dense slices the
// reduction kernels in internal/coll operate on directly — the
// compile-time analogue of the classic API's runtime op/datatype check.
// Named types and structs route through MPI.OBJECT buffers, which carry
// no arithmetic; the constraints keep them out of reductions entirely.
type (
	// Number admits the element types the arithmetic family
	// (Sum/Prod/Max/Min) accepts.
	Number interface {
		byte | int16 | int32 | int64 | float32 | float64
	}
	// Integer admits the element types the bitwise family accepts.
	Integer interface {
		byte | int16 | int32 | int64
	}
	// Logical admits bool and, following the C binding's non-zero-is-
	// true convention, the integer types.
	Logical interface {
		bool | byte | int16 | int32 | int64
	}
	// Primitive admits every element type reductions can carry.
	Primitive interface {
		bool | byte | int16 | int32 | int64 | float32 | float64
	}
)

// Op is a reduction operation bound to element type T at compile time.
// Construct one with Sum/Max/Min/Prod/LAnd/…/OpFunc; the zero Op is
// invalid.
type Op[T any] struct {
	op *mpi.Op
}

// Raw exposes the underlying classic operation.
func (o Op[T]) Raw() *mpi.Op { return o.op }

// Arithmetic reductions (MPI_SUM, MPI_PROD, MPI_MAX, MPI_MIN).
func Sum[T Number]() Op[T]  { return Op[T]{mpi.SUM} }
func Prod[T Number]() Op[T] { return Op[T]{mpi.PROD} }
func Max[T Number]() Op[T]  { return Op[T]{mpi.MAX} }
func Min[T Number]() Op[T]  { return Op[T]{mpi.MIN} }

// Logical reductions (MPI_LAND, MPI_LOR, MPI_LXOR).
func LAnd[T Logical]() Op[T] { return Op[T]{mpi.LAND} }
func LOr[T Logical]() Op[T]  { return Op[T]{mpi.LOR} }
func LXor[T Logical]() Op[T] { return Op[T]{mpi.LXOR} }

// Bitwise reductions (MPI_BAND, MPI_BOR, MPI_BXOR).
func BAnd[T Integer]() Op[T] { return Op[T]{mpi.BAND} }
func BOr[T Integer]() Op[T]  { return Op[T]{mpi.BOR} }
func BXor[T Integer]() Op[T] { return Op[T]{mpi.BXOR} }

// OpFunc wraps a user-defined reduction over typed dense slices
// (MPI_Op_create): fn must fold in into inout elementwise,
// inout[i] = op(in[i], inout[i]), with in contributed by the
// lower-ranked process. The slices reach fn without copying — they are
// typed views of the runtime's operand bytes (a message frame, your own
// receive buffer), type-asserted once per fold — so write only inout
// and retain neither. Declare commutativity honestly: non-commutative
// operations reduce strictly in rank order, at extra cost.
func OpFunc[T Primitive](fn func(in, inout []T), commute bool) Op[T] {
	return Op[T]{mpi.NewOp(func(in, inout any) {
		fn(in.([]T), inout.([]T))
	}, commute)}
}
