// Package coll implements the collective-operation algorithms of the
// runtime over the core point-to-point engine: dissemination barrier,
// binomial broadcast and reduce, gather and scatter straight between
// root and each member, ring allgather, pairwise alltoall, allreduce,
// linear-chain scan, and the reduction kernels they share.
//
// Allreduce has three schedules, which associate every element the
// same way (reduce.go's tree), so the result bits do not depend on
// which one ran: recursive doubling; for large operands, recursive
// halving + doubling; and the island fold (island.go), which runs every
// commutative Allreduce with a predefined operation among the ranks of
// one in-process job and sends no message: the members fold each
// other's contributions where they lie, chunk by chunk. A
// non-commutative operation reduces to rank 0 and broadcasts.
//
// Every collective is declared once, as a constructor returning a Plan
// (BarrierPlan, BcastPlan, GatherPlan, ScatterPlan, AllgatherPlan,
// AlltoallPlan, ReducePlan, AllreducePlan, ScanPlan, ReduceScatterPlan;
// NewPlan composes custom ones), and a Plan has two forms: Run
// (blocking) and Start (nonblocking).
//
// One executor runs them all. The algorithm is compiled into a schedule
// of post/consume/compute steps (sched.go) that never blocks: where it
// reaches an unarrived message it parks, and the engine's completion
// callback resumes it on the goroutine that waits for it (Request), or
// on a goroutine of its own while nobody waits, so a waiting schedule
// occupies no goroutine. A built plan is re-runnable: Rearm readies it
// for a later call (a communicator's Cache) or, once Persist has moved
// it to the persistent tag space, for its next activation.
// Cancellation points therefore live inside the algorithm rounds, not
// just the point-to-point wait path. Tags carry a per-instance sequence
// number, letting any number of collectives on one communicator overlap
// in flight without cross-matching.
//
// Reductions are byte-native: operands stay in wire format from the
// caller's buffer to the result, and each schedule folds them with a
// kernel resolved once from the (operation, storage class) table below
// (kernel.go).
package coll

import (
	"errors"
	"fmt"

	"gompi/internal/dtype"
)

// ApplyFn is a user-defined reduction: it folds one dense operand slice
// into another, inout[i] = op(in[i], inout[i]), where in is the operand
// contributed by the LOWER-ranked process — the MPI user-function
// contract, so non-commutative operations reduce in rank order. Both
// arguments are slices of the operand class's element type ([]int32,
// []float64, []any, …); they may be views of runtime-owned memory and
// must not be retained.
type ApplyFn func(in, inout any) error

// ErrUndefined reports a predefined operation applied to a storage
// class it is not defined on (a bitwise op on floats, arithmetic on
// booleans, …).
var ErrUndefined = errors.New("coll: reduction operation undefined on operand class")

// Op is a reduction operation.
type Op struct {
	Name        string
	Commutative bool

	// Exactly one of the two is set: the predefined operations carry
	// their kernel table, user operations the function to adapt.
	kernels [dtype.Obj + 1]Kernel
	user    ApplyFn
	// forms are a predefined operation's block loops by class, where it
	// has them (vector).
	forms [dtype.Obj + 1]blockForm
}

// NewOp wraps a user-defined reduction function (MPI_Op_create). It is
// defined on every storage class; fn sees typed views of the operands.
func NewOp(name string, commutative bool, fn ApplyFn) *Op {
	return &Op{Name: name, Commutative: commutative, user: fn}
}

// DefinedOn reports whether the operation has a kernel for operands of
// class cls.
func (o *Op) DefinedOn(cls dtype.Class) bool {
	return int(cls) < len(o.kernels) && (o.user != nil || o.kernels[cls] != nil)
}

// Kernel resolves the operation's kernel for operands of class cls, or
// ErrUndefined. Schedules resolve once per plan, never per fold.
func (o *Op) Kernel(cls dtype.Class) (Kernel, error) {
	switch {
	case !o.DefinedOn(cls):
		return nil, fmt.Errorf("%w: %s on %s", ErrUndefined, o.Name, cls)
	case o.user != nil:
		return userKernel(o.user, cls), nil
	}
	return o.kernels[cls], nil
}

func (o *Op) String() string { return o.Name }

// kind enumerates the predefined operations' typed loops, grouped by
// family — arithmetic (through kMinLoc), logical (through kLxor),
// bitwise — which is the order predefined relies on.
type kind uint8

const (
	kSum kind = iota
	kProd
	kMax
	kMin
	kMaxLoc
	kMinLoc
	kLand
	kLor
	kLxor
	kBand
	kBor
	kBxor
)

// predefined builds a predefined operation over the classes its family
// is defined on: arithmetic and MINLOC/MAXLOC on the six numeric
// classes; bitwise on the four integer classes; logical on the integer
// classes (the C binding's non-zero-is-true convention) and on BOOLEAN,
// whose wire form — a normative 0/1 byte — the byte loop serves as is.
func predefined(name string, k kind) *Op {
	o := &Op{Name: name, Commutative: true}
	switch {
	case k <= kMinLoc:
		o.kernels[dtype.U8] = arith[byte](k)
		o.kernels[dtype.I16] = arith[int16](k)
		o.kernels[dtype.I32] = arith[int32](k)
		o.kernels[dtype.I64] = arith[int64](k)
		o.kernels[dtype.F32] = arith[float32](k)
		o.kernels[dtype.F64] = arith[float64](k)
	default:
		o.kernels[dtype.U8] = bits[byte](k)
		o.kernels[dtype.I16] = bits[int16](k)
		o.kernels[dtype.I32] = bits[int32](k)
		o.kernels[dtype.I64] = bits[int64](k)
		if k <= kLxor {
			o.kernels[dtype.Bool] = o.kernels[dtype.U8]
		}
	}
	o.forms[dtype.U8] = vector[byte](k)
	o.forms[dtype.I16] = vector[int16](k)
	o.forms[dtype.I32] = vector[int32](k)
	o.forms[dtype.I64] = vector[int64](k)
	o.forms[dtype.F32] = vector[float32](k)
	o.forms[dtype.F64] = vector[float64](k)
	return o
}

// Predefined reduction operations (MPI §4.9.2).
var (
	Sum  = predefined("MPI_SUM", kSum)
	Prod = predefined("MPI_PROD", kProd)
	Max  = predefined("MPI_MAX", kMax)
	Min  = predefined("MPI_MIN", kMin)
	Land = predefined("MPI_LAND", kLand)
	Lor  = predefined("MPI_LOR", kLor)
	Lxor = predefined("MPI_LXOR", kLxor)
	Band = predefined("MPI_BAND", kBand)
	Bor  = predefined("MPI_BOR", kBor)
	Bxor = predefined("MPI_BXOR", kBxor)

	// MaxLoc and MinLoc operate on (value, index) pairs laid out as
	// consecutive elements of one of the pair datatypes.
	MaxLoc = predefined("MPI_MAXLOC", kMaxLoc)
	MinLoc = predefined("MPI_MINLOC", kMinLoc)
)
