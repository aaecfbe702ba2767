package mpi

import "gompi/internal/coll"

// Op is a reduction operation used by Reduce, Allreduce, ReduceScatter
// and Scan.
type Op struct {
	op       *coll.Op
	pairOnly bool // MINLOC/MAXLOC require one of the pair datatypes
}

// Predefined reduction operations (MPI §4.9.2). The logical family
// accepts BOOLEAN and the integer types (non-zero meaning true); the
// bitwise family accepts integer types; MINLOC and MAXLOC require the
// pair datatypes SHORT2/INT2/LONG2/FLOAT2/DOUBLE2.
var (
	MAX    = &Op{op: coll.Max}
	MIN    = &Op{op: coll.Min}
	SUM    = &Op{op: coll.Sum}
	PROD   = &Op{op: coll.Prod}
	LAND   = &Op{op: coll.Land}
	LOR    = &Op{op: coll.Lor}
	LXOR   = &Op{op: coll.Lxor}
	BAND   = &Op{op: coll.Band}
	BOR    = &Op{op: coll.Bor}
	BXOR   = &Op{op: coll.Bxor}
	MINLOC = &Op{op: coll.MinLoc, pairOnly: true}
	MAXLOC = &Op{op: coll.MaxLoc, pairOnly: true}
)

// UserFunction is a user-defined reduction kernel: it must fold in into
// inout elementwise — inout[i] = op(in[i], inout[i]) — where in is the
// operand contributed by the lower-ranked process. For the primitive
// datatypes both arguments are dense slices of the buffer's element type
// ([]int32, []float64, …). OBJECT operands arrive as []any whatever the
// buffer's slice type — a []Ticket buffer is folded as a []any of
// Ticket values — and the result is stored back into the buffer's type.
// They may be views of library memory — a message frame, the caller's
// own receive buffer — so the function must write only inout and must
// not retain either slice past its return.
type UserFunction func(in, inout any)

// NewOp wraps a user-defined reduction (MPI_Op_create). Declare
// commutativity honestly: non-commutative operations reduce strictly in
// rank order, at extra cost.
func NewOp(fn UserFunction, commute bool) *Op {
	return &Op{op: coll.NewOp("user", commute, func(in, inout any) error {
		fn(in, inout)
		return nil
	})}
}

// checkOp validates an op against the datatype it is applied to —
// including that the op's kernel table covers the datatype's storage
// class, so a bitwise op on floats or arithmetic on BOOLEAN is refused
// at the call, before any message moves.
func checkOp(op *Op, d *Datatype) error {
	if op == nil || op.op == nil {
		return errf(ErrOp, "nil reduction operation")
	}
	if op.pairOnly && !d.t.IsPair() {
		return errf(ErrOp, "MINLOC/MAXLOC require a pair datatype, got %s", d.Name())
	}
	if !op.op.DefinedOn(d.t.Class()) {
		return errf(ErrOp, "%s is not defined on %s", op.op, d.Name())
	}
	return nil
}
