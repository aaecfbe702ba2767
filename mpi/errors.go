package mpi

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"gompi/internal/coll"
	"gompi/internal/core"
	"gompi/internal/dtype"
	"gompi/internal/pio"
	"gompi/internal/transport"
)

// ErrClass enumerates the MPI-1.1 error classes (§7.3 of the standard).
// The binding returns *Error values carrying one of these classes; Go's
// error return takes the place of both C return codes and the Java
// binding's MPIException.
type ErrClass int

// MPI error classes.
const (
	ErrSuccess  ErrClass = iota // no error
	ErrBuffer                   // invalid buffer pointer / exhausted attach buffer
	ErrCount                    // invalid count argument
	ErrType                     // invalid datatype argument
	ErrTag                      // invalid tag argument
	ErrComm                     // invalid (or freed) communicator
	ErrRank                     // invalid rank
	ErrRequest                  // invalid request handle
	ErrRoot                     // invalid root
	ErrGroup                    // invalid group
	ErrOp                       // invalid reduction operation
	ErrTopology                 // invalid topology
	ErrDims                     // invalid dimension argument
	ErrArg                      // invalid argument of some other kind
	ErrTruncate                 // message truncated on receive
	ErrOther                    // known error not in this list
	ErrIntern                   // internal implementation error
	ErrInStatus                 // error code is in the status
	ErrPending                  // pending request

	// MPI-2 §9 (parallel I/O) classes.
	ErrFile   // invalid file handle (closed, nil, wrong state)
	ErrIO     // underlying filesystem I/O failure
	ErrAmode  // invalid access-mode combination passed to OpenFile
	ErrAccess // operation forbidden by the file's access mode

	// ErrProcFailed reports that a peer process died (its OS process
	// exited or its connection reset) while an operation depending on
	// it was pending — the MPI fault-tolerance extensions'
	// MPI_ERR_PROC_FAILED. Operations with other, live peers continue
	// to work on the same communicator.
	ErrProcFailed

	// ErrRevoked reports that the communicator was revoked
	// (ULFM MPI_ERR_REVOKED): some member called Revoke after observing
	// a failure, poisoning all non-recovery operations on the
	// communicator so every member reaches the repair path (Shrink)
	// instead of deadlocking on a dead participant.
	ErrRevoked

	// ErrPort reports a dynamic-process rendezvous failure
	// (MPI-2 MPI_ERR_PORT): a malformed, unknown, closed or stale port
	// name, a refused or timed-out Connect/Accept handshake, or a
	// failure to establish the pairwise links behind a join.
	ErrPort

	// ErrSpawn reports that MPI_Comm_spawn could not provision the
	// child processes (MPI-2 MPI_ERR_SPAWN): the launcher's spawn
	// service refused, or starting the children locally failed.
	ErrSpawn
)

var errClassNames = map[ErrClass]string{
	ErrSuccess: "MPI_SUCCESS", ErrBuffer: "MPI_ERR_BUFFER", ErrCount: "MPI_ERR_COUNT",
	ErrType: "MPI_ERR_TYPE", ErrTag: "MPI_ERR_TAG", ErrComm: "MPI_ERR_COMM",
	ErrRank: "MPI_ERR_RANK", ErrRequest: "MPI_ERR_REQUEST", ErrRoot: "MPI_ERR_ROOT",
	ErrGroup: "MPI_ERR_GROUP", ErrOp: "MPI_ERR_OP", ErrTopology: "MPI_ERR_TOPOLOGY",
	ErrDims: "MPI_ERR_DIMS", ErrArg: "MPI_ERR_ARG", ErrTruncate: "MPI_ERR_TRUNCATE",
	ErrOther: "MPI_ERR_OTHER", ErrIntern: "MPI_ERR_INTERN", ErrInStatus: "MPI_ERR_IN_STATUS",
	ErrPending: "MPI_ERR_PENDING",
	ErrFile:    "MPI_ERR_FILE", ErrIO: "MPI_ERR_IO", ErrAmode: "MPI_ERR_AMODE",
	ErrAccess: "MPI_ERR_ACCESS", ErrProcFailed: "MPI_ERR_PROC_FAILED",
	ErrRevoked: "MPI_ERR_REVOKED",
	ErrPort:    "MPI_ERR_PORT", ErrSpawn: "MPI_ERR_SPAWN",
}

func (c ErrClass) String() string {
	if s, ok := errClassNames[c]; ok {
		return s
	}
	return fmt.Sprintf("MPI_ERR(%d)", int(c))
}

// Error is the binding's error type: an MPI error class plus detail.
type Error struct {
	Class ErrClass
	Msg   string
}

func (e *Error) Error() string {
	if e.Msg == "" {
		return e.Class.String()
	}
	return e.Class.String() + ": " + e.Msg
}

// errf builds an *Error with formatted detail.
func errf(class ErrClass, format string, args ...any) *Error {
	return &Error{Class: class, Msg: fmt.Sprintf(format, args...)}
}

// errRow is one row of errTable: a sentinel and its class.
type errRow struct {
	err   error
	class ErrClass
}

// errTable classes the sentinel errors of the layers below the binding
// (core, coll, dtype, pio, transport): mapErr takes the class of the
// first row whose sentinel errors.Is finds in an error's chain, so a
// sentinel keeps its class however deeply a schedule step, an engine
// call or a file operation wrapped it. Every exported sentinel of those
// packages has a row or a reason not to (TestErrorTableCoversEverySentinel).
var errTable = []errRow{
	{core.ErrCommRevoked, ErrRevoked},
	{core.ErrContextsExhausted, ErrComm},
	// A cancelled collective instance: the communicator is not revoked,
	// and a program that repairs on ErrRevoked must not repair here.
	{core.ErrInstanceCancelled, ErrOther},
	{core.ErrTruncated, ErrTruncate},
	{core.ErrWithdrawn, ErrIntern},
	{coll.ErrUndefined, ErrOp},
	{dtype.ErrTruncate, ErrTruncate},
	{dtype.ErrClassMismatch, ErrType},
	{dtype.ErrUncommitted, ErrType},
	{dtype.ErrStructBase, ErrType},
	{dtype.ErrBounds, ErrBuffer},
	{dtype.ErrNegative, ErrCount},
	{dtype.ErrFormat, ErrIntern},
	{pio.ErrClosed, ErrFile},
	{pio.ErrView, ErrArg},
	// A closed device is not a failed peer: the error does not say whose
	// endpoint closed, and a peer that closed cleanly has not failed. A
	// peer's death reaches mapErr as a *transport.PeerLostError.
	{transport.ErrClosed, ErrIntern},
}

// mapErr is the binding's one classifier of the errors its layers
// return: a lost peer (*transport.PeerLostError) is ErrProcFailed; else
// the first errTable row that matches names the class; else a file
// operation's *pio.Error is ErrAccess on a permission failure and ErrIO
// otherwise; anything else is ErrIntern. A nil error returns before
// anything is allocated, inlined at the call: every call checks its
// result through here.
func mapErr(err error) error {
	if err == nil {
		return nil
	}
	return classify(err)
}

// classify is mapErr for a non-nil error.
func classify(err error) *Error {
	var lost *transport.PeerLostError
	var ioe *pio.Error
	class := ErrIntern
	switch row := slices.IndexFunc(errTable, func(r errRow) bool { return errors.Is(err, r.err) }); {
	case errors.As(err, &lost):
		class = ErrProcFailed
	case row >= 0:
		class = errTable[row].class
	case errors.As(err, &ioe):
		class = ErrIO
		if os.IsPermission(ioe.Err) {
			class = ErrAccess
		}
	}
	return &Error{Class: class, Msg: err.Error()}
}

// ClassOf extracts the MPI error class of an error returned by this
// package; non-*Error values map to ErrOther, nil to ErrSuccess.
func ClassOf(err error) ErrClass {
	if err == nil {
		return ErrSuccess
	}
	if e, ok := err.(*Error); ok {
		return e.Class
	}
	return ErrOther
}

// Errhandler selects how a communicator reports errors, mirroring
// MPI_Errhandler. The Go binding defaults to ErrorsReturn — Go's error
// values are the natural analogue of the Java binding's exceptions —
// while ErrorsAreFatal panics, matching the MPI default's
// program-terminating behaviour.
type Errhandler int

// Predefined error handlers.
const (
	// ErrorsReturn delivers errors as Go return values (default).
	ErrorsReturn Errhandler = iota
	// ErrorsAreFatal panics on the first error raised on the
	// communicator.
	ErrorsAreFatal
)
