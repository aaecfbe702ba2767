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
// on the exact same path as the classic API; every other element type —
// structs, named primitives, pointers — maps to MPI.OBJECT and travels
// gob-encoded, with registration handled automatically on first use.
// Sub-slicing replaces offset/count: send buf[lo:hi] instead of
// (buf, lo, hi-lo).
//
// The classic API remains the compatibility layer; both interoperate
// freely on the same communicators (a typed.Send matches a classic Recv
// of the same element class, and vice versa).
//
// Cancellation goes through the one request class: start the operation
// (Irecv, Ibcast, …) and wait with Request.WaitCtx. Cancelling the
// context cancels a still-unmatched receive or send in the sense of
// MPI_Cancel, and a collective at its next send/receive boundary.
package typed

import (
	"fmt"
	"reflect"

	"gompi/internal/dtype"
	"gompi/mpi"
)

// Peer is the point-to-point surface of the classic API the typed layer
// builds on. *mpi.Comm satisfies it, and so do *mpi.Intracomm,
// *mpi.Intercomm, *mpi.Cartcomm and *mpi.Graphcomm through embedding.
type Peer interface {
	Rank() int
	Size() int
	Send(buf any, offset, count int, d *mpi.Datatype, dest, tag int) error
	Recv(buf any, offset, count int, d *mpi.Datatype, source, tag int) (*mpi.Status, error)
	Isend(buf any, offset, count int, d *mpi.Datatype, dest, tag int) (*mpi.Request, error)
	Irecv(buf any, offset, count int, d *mpi.Datatype, source, tag int) (*mpi.Request, error)
}

// Comm is the communicator surface the typed collectives compile
// against: the point-to-point Peer surface plus the classic collective
// entry points, blocking and nonblocking. *mpi.Intracomm satisfies it,
// and *mpi.Cartcomm and *mpi.Graphcomm do through embedding; when
// intercommunicator collectives land, *mpi.Intercomm will too, with no
// typed-signature break. Point-to-point-only communicators keep working
// with the typed sends and receives, which only require Peer.
type Comm interface {
	Peer
	SkipColl()
	Barrier() error
	Ibarrier() (*mpi.Request, error)
	Bcast(buf any, offset, count int, d *mpi.Datatype, root int) error
	Ibcast(buf any, offset, count int, d *mpi.Datatype, root int) (*mpi.Request, error)
	Gather(sendbuf any, soffset, scount int, sdt *mpi.Datatype,
		recvbuf any, roffset, rcount int, rdt *mpi.Datatype, root int) error
	Igather(sendbuf any, soffset, scount int, sdt *mpi.Datatype,
		recvbuf any, roffset, rcount int, rdt *mpi.Datatype, root int) (*mpi.Request, error)
	Gatherv(sendbuf any, soffset, scount int, sdt *mpi.Datatype,
		recvbuf any, roffset int, recvcounts, displs []int, rdt *mpi.Datatype, root int) error
	Scatter(sendbuf any, soffset, scount int, sdt *mpi.Datatype,
		recvbuf any, roffset, rcount int, rdt *mpi.Datatype, root int) error
	Iscatter(sendbuf any, soffset, scount int, sdt *mpi.Datatype,
		recvbuf any, roffset, rcount int, rdt *mpi.Datatype, root int) (*mpi.Request, error)
	Scatterv(sendbuf any, soffset int, sendcounts, displs []int, sdt *mpi.Datatype,
		recvbuf any, roffset, rcount int, rdt *mpi.Datatype, root int) error
	Allgather(sendbuf any, soffset, scount int, sdt *mpi.Datatype,
		recvbuf any, roffset, rcount int, rdt *mpi.Datatype) error
	Iallgather(sendbuf any, soffset, scount int, sdt *mpi.Datatype,
		recvbuf any, roffset, rcount int, rdt *mpi.Datatype) (*mpi.Request, error)
	Allgatherv(sendbuf any, soffset, scount int, sdt *mpi.Datatype,
		recvbuf any, roffset int, recvcounts, displs []int, rdt *mpi.Datatype) error
	Alltoall(sendbuf any, soffset, scount int, sdt *mpi.Datatype,
		recvbuf any, roffset, rcount int, rdt *mpi.Datatype) error
	Ialltoall(sendbuf any, soffset, scount int, sdt *mpi.Datatype,
		recvbuf any, roffset, rcount int, rdt *mpi.Datatype) (*mpi.Request, error)
	Alltoallv(sendbuf any, soffset int, sendcounts, sdispls []int, sdt *mpi.Datatype,
		recvbuf any, roffset int, recvcounts, rdispls []int, rdt *mpi.Datatype) error
	Reduce(sendbuf any, soffset int, recvbuf any, roffset int,
		count int, d *mpi.Datatype, op *mpi.Op, root int) error
	Ireduce(sendbuf any, soffset int, recvbuf any, roffset int,
		count int, d *mpi.Datatype, op *mpi.Op, root int) (*mpi.Request, error)
	Allreduce(sendbuf any, soffset int, recvbuf any, roffset int,
		count int, d *mpi.Datatype, op *mpi.Op) error
	Iallreduce(sendbuf any, soffset int, recvbuf any, roffset int,
		count int, d *mpi.Datatype, op *mpi.Op) (*mpi.Request, error)
	ReduceScatter(sendbuf any, soffset int, recvbuf any, roffset int,
		recvcounts []int, d *mpi.Datatype, op *mpi.Op) error
	Scan(sendbuf any, soffset int, recvbuf any, roffset int,
		count int, d *mpi.Datatype, op *mpi.Op) error
	Iscan(sendbuf any, soffset int, recvbuf any, roffset int,
		count int, d *mpi.Datatype, op *mpi.Op) (*mpi.Request, error)
	Exscan(sendbuf any, soffset int, recvbuf any, roffset int,
		count int, d *mpi.Datatype, op *mpi.Op) error
	Iexscan(sendbuf any, soffset int, recvbuf any, roffset int,
		count int, d *mpi.Datatype, op *mpi.Op) (*mpi.Request, error)
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
// predefined basic datatype for native element types, MPI.OBJECT for
// everything else. The inference is cached per type, so TypeOf is cheap
// enough for per-message use.
func TypeOf[T any]() *mpi.Datatype {
	return datatypeOf[dtype.Infer(reflect.TypeFor[T]()).Class]
}

// Count returns the number of T elements a receive described by st
// delivered — GetCount with the datatype inferred rather than passed.
func Count[T any](st *mpi.Status) int {
	return st.GetCount(TypeOf[T]())
}

// view resolves a buffer for a communication call: native element types
// pass through as-is (zero-copy); named primitives (`type Celsius
// float64`) are reinterpreted in place to their underlying native slice
// and stay on their class's wire format; everything else is Obj-routed
// and boxed into a fresh []any. The returned unbox is non-nil exactly
// when the call must copy results back into buf afterwards (receives of
// boxed types) — reinterpreted receives write straight through the
// shared storage and need no unbox.
//
// The type switch is the hot path: one runtime type comparison on the
// instantiated slice type, no registry lookup, so a typed Send costs
// what the classic Send costs. Only non-native element types fall
// through to the inference registry (which gob-registers the Obj-routed
// ones).
func view[T any](buf []T) (raw any, d *mpi.Datatype, unbox func() error) {
	switch b := any(buf).(type) {
	case []byte:
		return b, mpi.BYTE, nil
	case []bool:
		return b, mpi.BOOLEAN, nil
	case []int16:
		return b, mpi.SHORT, nil
	case []int32:
		return b, mpi.INT, nil
	case []int64:
		return b, mpi.LONG, nil
	case []float32:
		return b, mpi.FLOAT, nil
	case []float64:
		return b, mpi.DOUBLE, nil
	case []any:
		return b, mpi.OBJECT, nil
	}
	if inf := dtype.Infer(reflect.TypeFor[T]()); inf.Reinterp {
		nv, _ := dtype.NativeView(any(buf))
		return nv, datatypeOf[inf.Class], nil
	}
	tmp := make([]any, len(buf))
	for i, v := range buf {
		tmp[i] = v
	}
	return tmp, mpi.OBJECT, func() error { return unboxInto(buf, tmp) }
}

// unboxInto copies received object elements back into the typed buffer.
// Slots the receive did not fill stay nil in tmp and are skipped. gob
// flattens pointers on the wire, so when T is a pointer type the
// arriving base value is re-boxed behind a fresh pointer.
func unboxInto[T any](dst []T, tmp []any) error {
	for i, v := range tmp {
		if v == nil {
			continue
		}
		t, ok := v.(T)
		if !ok {
			if p, ok := reboxPointer[T](v); ok {
				dst[i] = p
				continue
			}
			return fmt.Errorf("typed: element %d arrived as %T, want %T", i, v, dst[i])
		}
		dst[i] = t
	}
	return nil
}

// reboxPointer lifts v to *E when T is a pointer type *E and v is an E.
func reboxPointer[T any](v any) (T, bool) {
	var zero T
	rt := reflect.TypeFor[T]()
	if rt.Kind() != reflect.Pointer || reflect.TypeOf(v) != rt.Elem() {
		return zero, false
	}
	p := reflect.New(rt.Elem())
	p.Elem().Set(reflect.ValueOf(v))
	return p.Interface().(T), true
}

// Send is the blocking standard-mode send of a whole slice: the typed
// analogue of MPI_Send. Use sub-slicing where the classic API would use
// offset/count.
func Send[T any](c Peer, buf []T, dest, tag int) error {
	raw, d, _ := view(buf)
	return c.Send(raw, 0, len(buf), d, dest, tag)
}

// Recv is the blocking receive into a whole slice (MPI_Recv). The
// source and tag arguments accept the mpi.AnySource and mpi.AnyTag
// wildcards. The incoming payload lands directly in buf — no staging
// buffer, no unpack copy — whenever the element type is a native or
// named primitive on a little-endian host, so with a preallocated
// buffer a steady-state Recv allocates nothing but its Status. If the
// message holds more elements than buf, buf is filled and an
// ErrTruncate-class error is returned (MPI_ERR_TRUNCATE semantics).
func Recv[T any](c Peer, buf []T, source, tag int) (*mpi.Status, error) {
	raw, d, unbox := view(buf)
	st, err := c.Recv(raw, 0, len(buf), d, source, tag)
	// Unbox even on error: a truncated receive has deposited whole
	// elements that must still reach the typed buffer. The operation's
	// error takes precedence.
	if unbox != nil {
		if uerr := unbox(); err == nil {
			err = uerr
		}
	}
	return st, err
}

// Isend starts a non-blocking standard-mode send (MPI_Isend). The
// buffer must not be modified until the request completes.
func Isend[T any](c Peer, buf []T, dest, tag int) (*Request[T], error) {
	raw, d, _ := view(buf)
	r, err := c.Isend(raw, 0, len(buf), d, dest, tag)
	return started[T](r, err, nil)
}

// Irecv starts a non-blocking receive (MPI_Irecv). The buffer is filled
// by the time the returned request completes (see Recv for where the
// payload lands) and must not be touched before.
func Irecv[T any](c Peer, buf []T, source, tag int) (*Request[T], error) {
	raw, d, unbox := view(buf)
	r, err := c.Irecv(raw, 0, len(buf), d, source, tag)
	return started[T](r, err, unbox)
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
