// Package dtype implements the MPI datatype engine underneath the public
// mpi binding: element storage classes, derived-type typemaps (contiguous,
// vector, indexed, struct — with the mpiJava same-base-type restriction),
// and packing of typed buffer sections to and from wire bytes.
//
// Displacements, strides, extents and bounds are all expressed in units of
// *base elements*, matching the mpiJava binding: Java (and Go) buffers are
// one-dimensional arrays of a primitive type, so there is no byte-level
// addressing as in the C binding (paper §2.2).
package dtype

import (
	"errors"
	"fmt"
	"slices"
)

// Class identifies the storage class of buffer elements: the concrete Go
// slice type a buffer must have, and the wire size of one element.
type Class uint8

// Storage classes. CHAR shares I32 storage (Go rune == int32); PACKED
// shares U8. Obj elements are arbitrary gob-serializable values.
const (
	U8   Class = iota // []byte
	Bool              // []bool
	I16               // []int16
	I32               // []int32 (also []rune)
	I64               // []int64
	F32               // []float32
	F64               // []float64
	Obj               // []any, gob-encoded on the wire
	numClasses
)

// WireSize returns the number of bytes one element of the class occupies
// on the wire. Obj elements have variable size; WireSize returns 0.
func (c Class) WireSize() int {
	switch c {
	case U8, Bool:
		return 1
	case I16:
		return 2
	case I32, F32:
		return 4
	case I64, F64:
		return 8
	default:
		return 0
	}
}

func (c Class) String() string {
	switch c {
	case U8:
		return "byte"
	case Bool:
		return "bool"
	case I16:
		return "int16"
	case I32:
		return "int32"
	case I64:
		return "int64"
	case F32:
		return "float32"
	case F64:
		return "float64"
	case Obj:
		return "object"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// run is a maximal block of consecutive displacements, the unit every
// pack and unpack copies.
type run struct {
	off int // displacement of the first element of the run
	n   int // number of consecutive elements
}

// Type is a datatype descriptor: a storage class plus a typemap of
// displacements. Types are immutable after construction and safe for
// concurrent use.
type Type struct {
	class Class
	disps []int // displacement of every basic element of one item
	runs  []run // disps grouped into maximal consecutive runs
	dmin  int   // smallest displacement in disps
	dmax  int   // largest displacement in disps
	lb    int   // lower bound, in elements
	ub    int   // upper bound, in elements (extent = ub-lb)
	name  string

	committed bool
	marker    uint8 // 0: ordinary; 1: LB marker; 2: UB marker
	pair      bool  // MINLOC/MAXLOC (value,index) pair type
	// contig marks a type whose items tile memory densely ([0,size)
	// with extent == size): walk visits count items as one run.
	contig bool
}

// Marker kinds for the MPI_LB / MPI_UB pseudo-types.
const (
	markNone uint8 = iota
	markLB
	markUB
)

var (
	// ErrUncommitted is returned when an uncommitted derived type is
	// used in a communication call.
	ErrUncommitted = errors.New("dtype: datatype not committed")
	// ErrClassMismatch is returned when a buffer's concrete slice type
	// does not match the datatype's storage class.
	ErrClassMismatch = errors.New("dtype: buffer type does not match datatype storage class")
	// ErrBounds is returned when a typemap access would fall outside
	// the buffer.
	ErrBounds = errors.New("dtype: buffer access out of bounds")
	// ErrNegative is returned for negative counts, block lengths or
	// similar arguments.
	ErrNegative = errors.New("dtype: negative count or block length")
	// ErrStructBase is the mpiJava restriction (paper §2.2): all
	// component types of a Struct must share one base storage class.
	ErrStructBase = errors.New("dtype: Struct components must share a single base type (mpiJava restriction)")
)

// Basic returns a predefined basic datatype: one element of class c at
// displacement zero. Basic types are born committed.
func Basic(c Class, name string) *Type {
	t := &Type{
		class:     c,
		disps:     []int{0},
		lb:        0,
		ub:        1,
		name:      name,
		committed: true,
	}
	t.buildRuns()
	return t
}

// Pair returns a predefined two-element pair type (MPI.INT2 and friends)
// used with the MINLOC and MAXLOC reduction operations: element 0 is the
// value, element 1 the index.
func Pair(c Class, name string) *Type {
	t := &Type{
		class:     c,
		disps:     []int{0, 1},
		lb:        0,
		ub:        2,
		name:      name,
		committed: true,
		pair:      true,
	}
	t.buildRuns()
	return t
}

// Marker returns one of the MPI_LB/MPI_UB pseudo-types, which occupy no
// storage but pin the bounds of a Struct.
func Marker(lb bool, name string) *Type {
	m := markUB
	if lb {
		m = markLB
	}
	return &Type{name: name, marker: m, committed: true}
}

// Class reports the storage class of the type's base elements.
func (t *Type) Class() Class { return t.class }

// Size returns the number of basic elements one item of the type carries
// (the true data size, holes excluded).
func (t *Type) Size() int { return len(t.disps) }

// Extent returns ub-lb: the stride, in base elements, between consecutive
// items of this type in a buffer.
func (t *Type) Extent() int { return t.ub - t.lb }

// Lb returns the lower bound in base elements.
func (t *Type) Lb() int { return t.lb }

// Ub returns the upper bound in base elements.
func (t *Type) Ub() int { return t.ub }

// Name returns the type's display name.
func (t *Type) Name() string { return t.name }

// SetName renames the type (MPI_Type_set_name analogue, used in tests).
func (t *Type) SetName(n string) { t.name = n }

// Committed reports whether Commit has been called (basic types are
// always committed).
func (t *Type) Committed() bool { return t.committed }

// IsPair reports whether the type is one of the MINLOC/MAXLOC pair types.
func (t *Type) IsPair() bool { return t.pair }

// IsMarker reports whether the type is the LB or UB pseudo-type.
func (t *Type) IsMarker() bool { return t.marker != markNone }

// IsContiguous reports whether items of the type tile memory densely
// (no holes, extent == size), the shape the zero-copy fast paths
// require.
func (t *Type) IsContiguous() bool { return t.contig }

// Runs returns the typemap grouped into maximal runs of consecutive
// displacements, as (offset, length) pairs in typemap order. The file
// layer walks these to turn a view into contiguous file extents.
func (t *Type) Runs() [][2]int {
	out := make([][2]int, len(t.runs))
	for i, r := range t.runs {
		out[i] = [2]int{r.off, r.n}
	}
	return out
}

// Monotone reports whether the typemap's displacements are strictly
// increasing — the shape MPI requires of filetypes (non-negative,
// monotonically nondecreasing, non-overlapping for writes).
func (t *Type) Monotone() bool {
	for i := 1; i < len(t.disps); i++ {
		if t.disps[i] <= t.disps[i-1] {
			return false
		}
	}
	return true
}

// Commit finalizes a derived type for use in communication. It is
// idempotent.
func (t *Type) Commit() {
	t.committed = true
}

// WireBytes returns the wire size of count items, or -1 for Obj class
// (variable).
func (t *Type) WireBytes(count int) int {
	es := t.class.WireSize()
	if es == 0 {
		return -1
	}
	return count * len(t.disps) * es
}

func (t *Type) String() string {
	if t == nil {
		return "<nil type>"
	}
	return fmt.Sprintf("%s{class=%s size=%d extent=%d lb=%d}", t.name, t.class, t.Size(), t.Extent(), t.lb)
}

func (t *Type) buildRuns() {
	t.runs = t.runs[:0]
	i := 0
	for i < len(t.disps) {
		j := i + 1
		for j < len(t.disps) && t.disps[j] == t.disps[j-1]+1 {
			j++
		}
		t.runs = append(t.runs, run{off: t.disps[i], n: j - i})
		i = j
	}
	if len(t.disps) > 0 {
		t.dmin, t.dmax = slices.Min(t.disps), slices.Max(t.disps)
	}
	t.contig = len(t.runs) == 1 && t.runs[0].off == 0 &&
		t.lb == 0 && t.ub == len(t.disps)
}

// walk calls fn(lo, n) for every run of n consecutive elements, starting
// at element lo of the buffer, that count items of t placed at element
// offset cover, in typemap order. A contiguous type's items are one run.
// walk is small enough for the compiler to inline, and with it each
// caller's fn, so a run costs its copy and not a call through a func
// value: check `go build -gcflags=-m` after changing it.
func (t *Type) walk(offset, count int, fn func(lo, n int)) {
	if t.contig && count > 0 {
		fn(offset, count*len(t.disps))
		return
	}
	for ; count > 0; count-- {
		for _, r := range t.runs {
			fn(offset+r.off, r.n)
		}
		offset += t.ub - t.lb
	}
}

// derive assembles a new derived type from a list of (itemDisp, old)
// placements: each placement lays down one item of old at base
// displacement itemDisp (in base elements).
func derive(class Class, name string, placements []placement) *Type {
	t := &Type{class: class, name: name}
	first := true
	for _, p := range placements {
		if p.old.marker != markNone {
			// Markers occupy no storage but join the provisional
			// bounds; applyMarkers then makes them sticky.
			t.noteBound(&first, p.disp, p.disp)
			continue
		}
		for _, d := range p.old.disps {
			t.disps = append(t.disps, p.disp+d)
		}
		t.noteBound(&first, p.disp+p.old.lb, p.disp+p.old.ub)
	}
	if first {
		// Empty type: zero extent.
		t.lb, t.ub = 0, 0
	}
	t.applyMarkers(placements)
	t.buildRuns()
	return t
}

type placement struct {
	disp int
	old  *Type
}

func (t *Type) noteBound(first *bool, lo, hi int) {
	if *first {
		t.lb, t.ub = lo, hi
		*first = false
		return
	}
	if lo < t.lb {
		t.lb = lo
	}
	if hi > t.ub {
		t.ub = hi
	}
}

// applyMarkers implements MPI's "sticky" LB/UB rule: if any component has
// an explicit LB (UB) marker, the result's lb (ub) is the min (max) over
// marker positions only.
func (t *Type) applyMarkers(placements []placement) {
	haveLB, haveUB := false, false
	lb, ub := 0, 0
	for _, p := range placements {
		switch p.old.marker {
		case markLB:
			if !haveLB || p.disp < lb {
				lb = p.disp
			}
			haveLB = true
		case markUB:
			if !haveUB || p.disp > ub {
				ub = p.disp
			}
			haveUB = true
		}
	}
	if haveLB {
		t.lb = lb
	}
	if haveUB {
		t.ub = ub
	}
}

// Contiguous returns a type of count consecutive items of old
// (MPI_Type_contiguous).
func Contiguous(count int, old *Type) (*Type, error) {
	if count < 0 {
		return nil, ErrNegative
	}
	ext := old.Extent()
	pl := make([]placement, count)
	for i := range pl {
		pl[i] = placement{disp: i * ext, old: old}
	}
	return derive(old.class, fmt.Sprintf("contig(%d,%s)", count, old.name), pl), nil
}

// Vector returns count blocks of blocklen items of old, the start of each
// block separated by stride items (stride in units of old's extent;
// MPI_Type_vector).
func Vector(count, blocklen, stride int, old *Type) (*Type, error) {
	if count < 0 || blocklen < 0 {
		return nil, ErrNegative
	}
	return strided(count, blocklen, stride*old.Extent(), old,
		fmt.Sprintf("vector(%d,%d,%d,%s)", count, blocklen, stride, old.name)), nil
}

// Hvector is Vector with the stride given directly in base elements
// (the mpiJava analogue of MPI_Type_hvector, where C strides are bytes).
func Hvector(count, blocklen, stride int, old *Type) (*Type, error) {
	if count < 0 || blocklen < 0 {
		return nil, ErrNegative
	}
	return strided(count, blocklen, stride, old,
		fmt.Sprintf("hvector(%d,%d,%d,%s)", count, blocklen, stride, old.name)), nil
}

func strided(count, blocklen, strideElems int, old *Type, name string) *Type {
	ext := old.Extent()
	pl := make([]placement, 0, count*blocklen)
	for i := 0; i < count; i++ {
		base := i * strideElems
		for b := 0; b < blocklen; b++ {
			pl = append(pl, placement{disp: base + b*ext, old: old})
		}
	}
	return derive(old.class, name, pl)
}

// Indexed returns a type with len(blocklens) blocks; block i has
// blocklens[i] items of old starting at displacement displs[i], given in
// units of old's extent (MPI_Type_indexed).
func Indexed(blocklens, displs []int, old *Type) (*Type, error) {
	if len(blocklens) != len(displs) {
		return nil, fmt.Errorf("dtype: Indexed: %d block lengths vs %d displacements", len(blocklens), len(displs))
	}
	return indexed(blocklens, displs, old.Extent(), old,
		fmt.Sprintf("indexed(%d,%s)", len(blocklens), old.name))
}

// Hindexed is Indexed with displacements given directly in base elements.
func Hindexed(blocklens, displs []int, old *Type) (*Type, error) {
	if len(blocklens) != len(displs) {
		return nil, fmt.Errorf("dtype: Hindexed: %d block lengths vs %d displacements", len(blocklens), len(displs))
	}
	return indexed(blocklens, displs, 1, old,
		fmt.Sprintf("hindexed(%d,%s)", len(blocklens), old.name))
}

func indexed(blocklens, displs []int, dispUnit int, old *Type, name string) (*Type, error) {
	ext := old.Extent()
	var pl []placement
	for i, bl := range blocklens {
		if bl < 0 {
			return nil, ErrNegative
		}
		base := displs[i] * dispUnit
		for b := 0; b < bl; b++ {
			pl = append(pl, placement{disp: base + b*ext, old: old})
		}
	}
	return derive(old.class, name, pl), nil
}

// Struct returns a type combining blocks of possibly different component
// types at explicit displacements in base elements (MPI_Type_struct).
// Per the paper (§2.2), all non-marker components must share one base
// storage class; LB/UB markers are allowed anywhere.
func Struct(blocklens, displs []int, types []*Type) (*Type, error) {
	if len(blocklens) != len(displs) || len(blocklens) != len(types) {
		return nil, fmt.Errorf("dtype: Struct: mismatched argument lengths %d/%d/%d", len(blocklens), len(displs), len(types))
	}
	class := numClasses
	for _, ty := range types {
		if ty.IsMarker() {
			continue
		}
		if class == numClasses {
			class = ty.class
		} else if ty.class != class {
			return nil, ErrStructBase
		}
	}
	if class == numClasses {
		class = U8 // marker-only struct; storage class irrelevant
	}
	var pl []placement
	for i, bl := range blocklens {
		if bl < 0 {
			return nil, ErrNegative
		}
		ext := types[i].Extent()
		if types[i].IsMarker() {
			// Markers ignore blocklen beyond presence.
			pl = append(pl, placement{disp: displs[i], old: types[i]})
			continue
		}
		for b := 0; b < bl; b++ {
			pl = append(pl, placement{disp: displs[i] + b*ext, old: types[i]})
		}
	}
	t := derive(class, fmt.Sprintf("struct(%d)", len(types)), pl)
	return t, nil
}
