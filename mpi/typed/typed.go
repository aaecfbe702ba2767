// Package typed is the Go-generics face of the mpi binding: compile-time
// type-safe, slice-first entry points that infer the MPI datatype from
// the buffer's element type, so callers never thread offset/count/
// *Datatype triples by hand. Where the classic (mpiJava-style) API says
//
//	world.Send(buf, 0, len(buf), mpi.DOUBLE, dest, tag)
//
// the typed API says
//
//	typed.Send(world, buf, dest, tag)
//
// Datatype inference follows the registry in internal/dtype: the seven
// native element types (byte, bool, int16, int32/rune, int64, float32,
// float64) map to their predefined basic datatypes and travel zero-copy
// on the exact same path as the classic API; named primitives (`type
// Celsius float64`) are reinterpreted in place and travel as their
// underlying type; every other element type — structs, pointers,
// strings — maps to MPI.OBJECT and travels gob-encoded, with
// registration handled automatically on first use. Either way the
// caller's slice is handed to the classic call as it stands: an OBJECT
// buffer is any slice, so a []Ticket is encoded straight from, and
// decoded straight into, the caller's memory. Sub-slicing replaces
// offset/count: send buf[lo:hi] instead of (buf, lo, hi-lo).
//
// The classic API remains the compatibility layer; both interoperate
// freely on the same communicators (a typed.Send matches a classic Recv
// of the same element class, and vice versa — a typed []Ticket and a
// classic []any or []Ticket under mpi.OBJECT alike).
//
// The typed layer has no request type of its own: the nonblocking and
// persistent forms return the classic *mpi.Request and
// *mpi.PersistentRequest, which join mpi.WaitAll, mpi.WaitAny and
// mpi.StartAll sets as they are. Cancellation goes through that one
// request class: start the operation (Irecv, Ibcast, …) and wait with
// Request.WaitCtx. Cancelling the context cancels a still-unmatched
// receive or send in the sense of MPI_Cancel, and ends a collective's
// instance on every member (mpi.Request.WaitCtx).
package typed

import (
	"reflect"

	"gompi/internal/dtype"
	"gompi/mpi"
)

// Peer is what the typed point-to-point calls need of a communicator:
// its rank and size, and Base, the accessor *mpi.Comm provides and every
// communicator kind inherits through embedding (*mpi.Intracomm,
// *mpi.Intercomm, *mpi.Cartcomm, *mpi.Graphcomm). The calls go through
// Base to the classic methods with a static call.
type Peer interface {
	Rank() int
	Size() int
	Base() *mpi.Comm
}

// Comm is what the typed collectives need: a Peer that is an
// intracommunicator, reached through Intra, the accessor *mpi.Intracomm
// provides and *mpi.Cartcomm and *mpi.Graphcomm inherit through
// embedding. An *mpi.Intercomm is not an intracommunicator and does not
// satisfy Comm; it works with the typed sends and receives, which only
// require Peer.
type Comm interface {
	Peer
	Intra() *mpi.Intracomm
}

// datatypeOf maps a storage class to its predefined basic datatype,
// keyed so the mapping survives reordering of the Class iota.
var datatypeOf = [...]*mpi.Datatype{
	dtype.U8:   mpi.BYTE,
	dtype.Bool: mpi.BOOLEAN,
	dtype.I16:  mpi.SHORT,
	dtype.I32:  mpi.INT,
	dtype.I64:  mpi.LONG,
	dtype.F32:  mpi.FLOAT,
	dtype.F64:  mpi.DOUBLE,
	dtype.Obj:  mpi.OBJECT,
}

// TypeOf returns the MPI datatype inferred for element type T: the
// predefined basic datatype for native element types and for named
// primitives (`type Celsius float64` travels as DOUBLE), MPI.OBJECT for
// everything else. Every typed call passes its slice to the classic
// call as it stands, with TypeOf[T]() as the datatype: the binding
// resolves the slice once (dtype.BufOf), so a typed call costs what the
// classic call costs. The type switch is the hot path, one comparison
// per case on the instantiated type; only other element types reach
// the inference registry, which caches per type and gob-registers the
// Obj-routed ones.
func TypeOf[T any]() *mpi.Datatype {
	switch any((*T)(nil)).(type) {
	case *float64:
		return mpi.DOUBLE
	case *byte:
		return mpi.BYTE
	case *int32:
		return mpi.INT
	case *int64:
		return mpi.LONG
	case *float32:
		return mpi.FLOAT
	case *int16:
		return mpi.SHORT
	case *bool:
		return mpi.BOOLEAN
	}
	return datatypeOf[dtype.Infer(reflect.TypeFor[T]()).Class]
}

// Count returns the number of T elements a receive described by st
// delivered — GetCount with the datatype inferred rather than passed.
func Count[T any](st *mpi.Status) int {
	return st.GetCount(TypeOf[T]())
}

// Send is the blocking standard-mode send of a whole slice: the typed
// analogue of MPI_Send. Use sub-slicing where the classic API would use
// offset/count.
func Send[T any](c Peer, buf []T, dest, tag int) error {
	return c.Base().Send(buf, 0, len(buf), TypeOf[T](), dest, tag)
}

// Recv is the blocking receive into a whole slice (MPI_Recv). The
// source and tag arguments accept the mpi.AnySource and mpi.AnyTag
// wildcards. The incoming payload lands directly in buf — no staging
// buffer, no unpack copy — whenever the element type is a native or
// named primitive on a little-endian host, so with a preallocated
// buffer a steady-state Recv allocates nothing (see below);
// Obj-routed elements are decoded straight into buf. If the message
// holds more elements than buf, buf is filled and an ErrTruncate-class
// error is returned (MPI_ERR_TRUNCATE semantics). An element that
// arrives as a type buf cannot hold is an ErrType-class error; the
// elements before it are deposited.
//
// Like the classic Recv, Recv allocates its Status in the caller's
// frame and must stay inlinable (`go build -gcflags=-m`), so a caller
// that drops the status allocates nothing.
func Recv[T any](c Peer, buf []T, source, tag int) (*mpi.Status, error) {
	return recv(new(mpi.Status), c, buf, source, tag)
}

// recv is Recv copying the classic call's status into st: that status
// then stays in recv's frame.
func recv[T any](st *mpi.Status, c Peer, buf []T, source, tag int) (*mpi.Status, error) {
	got, err := c.Base().Recv(buf, 0, len(buf), TypeOf[T](), source, tag)
	if got == nil {
		return nil, err
	}
	*st = *got
	return st, err
}

// Isend starts a non-blocking standard-mode send (MPI_Isend) and
// returns the classic request. The buffer must not be modified until
// the request completes.
func Isend[T any](c Peer, buf []T, dest, tag int) (*mpi.Request, error) {
	return c.Base().Isend(buf, 0, len(buf), TypeOf[T](), dest, tag)
}

// Irecv starts a non-blocking receive (MPI_Irecv) and returns the
// classic request. buf is filled (see Recv for how) by whichever call
// completes the request — its Wait, WaitCtx or Test, or mpi.WaitAll,
// mpi.WaitAny and friends over a set holding it — and must not be
// touched before. That call also reports an element of the wrong type
// (ErrType class), and so does every later completion call.
func Irecv[T any](c Peer, buf []T, source, tag int) (*mpi.Request, error) {
	return c.Base().Irecv(buf, 0, len(buf), TypeOf[T](), source, tag)
}

// SendOne sends a single value (a one-element message).
func SendOne[T any](c Peer, v T, dest, tag int) error {
	return Send(c, []T{v}, dest, tag)
}

// RecvOne receives a single value.
func RecvOne[T any](c Peer, source, tag int) (T, *mpi.Status, error) {
	buf := make([]T, 1)
	st, err := Recv(c, buf, source, tag)
	return buf[0], st, err
}
