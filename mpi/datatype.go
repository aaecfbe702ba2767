package mpi

import (
	"gompi/internal/dtype"
)

// Datatype describes the type of elements in message buffers (paper §2,
// Fig. 2). Predefined basic datatypes correspond to Go's primitive slice
// types; derived datatypes describe contiguous, strided or indirectly
// indexed sections of buffers, with all displacements expressed in units
// of base elements (the mpiJava convention — buffers are one-dimensional
// arrays, so there is no byte-level addressing).
type Datatype struct {
	t *dtype.Type
}

// Predefined basic datatypes (Fig. 2 of the paper) and their Go buffer
// types, plus the OBJECT extension of §2.2 and the pair types used with
// MINLOC/MAXLOC.
var (
	BYTE    = &Datatype{dtype.Basic(dtype.U8, "MPI.BYTE")}      // []byte
	CHAR    = &Datatype{dtype.Basic(dtype.I32, "MPI.CHAR")}     // []rune
	BOOLEAN = &Datatype{dtype.Basic(dtype.Bool, "MPI.BOOLEAN")} // []bool
	SHORT   = &Datatype{dtype.Basic(dtype.I16, "MPI.SHORT")}    // []int16
	INT     = &Datatype{dtype.Basic(dtype.I32, "MPI.INT")}      // []int32
	LONG    = &Datatype{dtype.Basic(dtype.I64, "MPI.LONG")}     // []int64
	FLOAT   = &Datatype{dtype.Basic(dtype.F32, "MPI.FLOAT")}    // []float32
	DOUBLE  = &Datatype{dtype.Basic(dtype.F64, "MPI.DOUBLE")}   // []float64
	PACKED  = &Datatype{dtype.Basic(dtype.U8, "MPI.PACKED")}    // []byte from Pack
	OBJECT  = &Datatype{dtype.Basic(dtype.Obj, "MPI.OBJECT")}   // any slice ([]any, []Ticket, …), gob-serialized

	SHORT2  = &Datatype{dtype.Pair(dtype.I16, "MPI.SHORT2")}
	INT2    = &Datatype{dtype.Pair(dtype.I32, "MPI.INT2")}
	LONG2   = &Datatype{dtype.Pair(dtype.I64, "MPI.LONG2")}
	FLOAT2  = &Datatype{dtype.Pair(dtype.F32, "MPI.FLOAT2")}
	DOUBLE2 = &Datatype{dtype.Pair(dtype.F64, "MPI.DOUBLE2")}

	// LB and UB are the pseudo-types that pin Struct bounds.
	LB = &Datatype{dtype.Marker(true, "MPI.LB")}
	UB = &Datatype{dtype.Marker(false, "MPI.UB")}
)

// RegisterObject records a concrete Go type for OBJECT-buffer
// serialization — the analogue of a Java class implementing
// Serializable. It must be called (in every process) before values of
// that type travel in an OBJECT buffer.
func RegisterObject(v any) { dtype.Register(v) }

// Size returns the number of base elements one item of the datatype
// carries (holes excluded; MPI_Type_size in element units).
func (d *Datatype) Size() int { return d.t.Size() }

// Extent returns the stride between consecutive items, in base elements
// (MPI_Type_extent in element units).
func (d *Datatype) Extent() int { return d.t.Extent() }

// Lb returns the lower bound in base elements.
func (d *Datatype) Lb() int { return d.t.Lb() }

// Ub returns the upper bound in base elements.
func (d *Datatype) Ub() int { return d.t.Ub() }

// Name returns the display name.
func (d *Datatype) Name() string { return d.t.Name() }

// Commit readies a derived datatype for use in communication
// (MPI_Type_commit). Basic types are pre-committed.
func (d *Datatype) Commit() { d.t.Commit() }

// Committed reports whether the type may be used in communication.
func (d *Datatype) Committed() bool { return d.t.Committed() }

func (d *Datatype) String() string { return d.t.String() }

// TypeContiguous returns a datatype of count consecutive items of old
// (MPI_Type_contiguous; mpiJava Datatype.Contiguous).
func TypeContiguous(count int, old *Datatype) (*Datatype, error) {
	t, err := dtype.Contiguous(count, old.t)
	if err != nil {
		return nil, wrapTypeErr(err)
	}
	return &Datatype{t}, nil
}

// TypeVector returns count blocks of blocklen items of old with the block
// starts separated by stride items (MPI_Type_vector).
func TypeVector(count, blocklen, stride int, old *Datatype) (*Datatype, error) {
	t, err := dtype.Vector(count, blocklen, stride, old.t)
	if err != nil {
		return nil, wrapTypeErr(err)
	}
	return &Datatype{t}, nil
}

// TypeHvector is TypeVector with the stride in base elements rather than
// multiples of old's extent (MPI_Type_hvector).
func TypeHvector(count, blocklen, stride int, old *Datatype) (*Datatype, error) {
	t, err := dtype.Hvector(count, blocklen, stride, old.t)
	if err != nil {
		return nil, wrapTypeErr(err)
	}
	return &Datatype{t}, nil
}

// TypeIndexed places blocklens[i] items of old at displacement displs[i],
// in multiples of old's extent (MPI_Type_indexed).
func TypeIndexed(blocklens, displs []int, old *Datatype) (*Datatype, error) {
	t, err := dtype.Indexed(blocklens, displs, old.t)
	if err != nil {
		return nil, wrapTypeErr(err)
	}
	return &Datatype{t}, nil
}

// TypeHindexed is TypeIndexed with displacements in base elements
// (MPI_Type_hindexed).
func TypeHindexed(blocklens, displs []int, old *Datatype) (*Datatype, error) {
	t, err := dtype.Hindexed(blocklens, displs, old.t)
	if err != nil {
		return nil, wrapTypeErr(err)
	}
	return &Datatype{t}, nil
}

// TypeStruct combines blocks of component types at explicit displacements
// in base elements (MPI_Type_struct). Following the paper (§2.2), all
// non-marker components must share one base storage class — the mpiJava
// restriction that buffers are arrays of a single primitive type.
func TypeStruct(blocklens, displs []int, types []*Datatype) (*Datatype, error) {
	ts := make([]*dtype.Type, len(types))
	for i, d := range types {
		ts[i] = d.t
	}
	t, err := dtype.Struct(blocklens, displs, ts)
	if err != nil {
		return nil, wrapTypeErr(err)
	}
	return &Datatype{t}, nil
}

func wrapTypeErr(err error) error {
	return errf(ErrType, "%v", err)
}
