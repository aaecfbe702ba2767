// Package pio is the parallel I/O engine underneath mpi.File (MPI-2
// §9): file views over the datatype engine's typemaps, independent
// element I/O through a view, and two-phase collective I/O composed on
// the internal/coll schedule engine (twophase.go).
//
// A view maps a rank-local element index space onto absolute file
// offsets: element k of the view lives at file element
//
//	disp + (k/S)*E + disps[k%S]
//
// where S, E and disps are the filetype's size, extent and typemap —
// the filetype tiles the file from disp, and the rank sees only the
// elements its typemap names (MPI-2 §9.3). All displacements are in
// base elements of the etype's storage class, following the binding's
// element-unit convention; the file itself stores the class's
// little-endian wire format, so files are portable across the SM and
// DM modes and across runs.
//
// The backing store is the host filesystem: every rank holds its own
// *os.File on the same path (goroutine ranks share the path in one
// process, mpirun ranks across processes rely on a shared filesystem),
// and all positioned I/O uses pread/pwrite, which are safe under
// concurrent use of independent handles.
package pio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"gompi/internal/dtype"
)

// DefaultStripe is the width of the cyclic aggregation stripes the
// two-phase collective I/O partitions every file into (twophase.go).
const DefaultStripe = 64 << 10

// ErrView reports a file view the engine cannot serve: a non-basic or
// variable-size etype, or a filetype that is uncommitted, of a
// different storage class, or not monotone non-overlapping.
var ErrView = errors.New("pio: invalid file view")

// ErrClosed reports an operation on a closed file.
var ErrClosed = errors.New("pio: file is closed")

// Error wraps a filesystem failure with the failing operation and
// path; the binding maps it to the MPI_ERR_IO class.
type Error struct {
	Op   string
	Path string
	Err  error
}

func (e *Error) Error() string { return fmt.Sprintf("pio: %s %s: %v", e.Op, e.Path, e.Err) }

func (e *Error) Unwrap() error { return e.Err }

// view is one rank's compiled file view: the filetype's typemap
// flattened into runs plus the constants the span walk needs.
type view struct {
	disp int      // displacement, in base elements
	es   int      // wire size of one base element
	size int      // filetype elements per tile
	ext  int      // filetype extent (tile stride, in base elements)
	runs [][2]int // typemap runs: (offset, length) per run
	cum  []int    // elements before each run (prefix sums)
}

// compileView validates (etype, filetype) and builds the compiled
// form. MPI requires filetype displacements to be non-negative,
// monotonically nondecreasing and (for writes) non-overlapping; the
// engine enforces the strict form, which also guarantees that view
// element order equals file offset order — the invariant the span walk
// and the EOF accounting rely on.
func compileView(disp int, etype, ftype *dtype.Type) (view, error) {
	if disp < 0 {
		return view{}, fmt.Errorf("%w: negative displacement %d", ErrView, disp)
	}
	es := etype.Class().WireSize()
	if es == 0 || etype.Size() != 1 || etype.Extent() != 1 || etype.IsMarker() {
		return view{}, fmt.Errorf("%w: etype %s is not a fixed-size basic type", ErrView, etype.Name())
	}
	switch {
	case ftype.IsMarker():
		return view{}, fmt.Errorf("%w: filetype %s is a bounds marker", ErrView, ftype.Name())
	case !ftype.Committed():
		return view{}, fmt.Errorf("%w: filetype %s not committed", ErrView, ftype.Name())
	case ftype.Class() != etype.Class():
		return view{}, fmt.Errorf("%w: filetype class %s vs etype class %s", ErrView, ftype.Class(), etype.Class())
	case ftype.Size() == 0:
		return view{}, fmt.Errorf("%w: empty filetype %s", ErrView, ftype.Name())
	case !ftype.Monotone():
		return view{}, fmt.Errorf("%w: filetype %s displacements not strictly increasing", ErrView, ftype.Name())
	case ftype.Lb() < 0:
		return view{}, fmt.Errorf("%w: filetype %s has negative lower bound", ErrView, ftype.Name())
	}
	runs := ftype.Runs()
	first := runs[0][0]
	last := runs[len(runs)-1][0] + runs[len(runs)-1][1] - 1
	if first < 0 {
		return view{}, fmt.Errorf("%w: filetype %s has negative displacement", ErrView, ftype.Name())
	}
	if ftype.Extent() <= last-first {
		return view{}, fmt.Errorf("%w: filetype %s tiles overlap (extent %d over span %d)",
			ErrView, ftype.Name(), ftype.Extent(), last-first+1)
	}
	v := view{disp: disp, es: es, size: ftype.Size(), ext: ftype.Extent(), runs: runs}
	v.cum = make([]int, len(runs))
	sum := 0
	for i, r := range runs {
		v.cum[i] = sum
		sum += r[1]
	}
	return v, nil
}

// span is one contiguous file extent, in bytes.
type span struct {
	off int64
	n   int
}

// spans maps the view element range [off, off+n) to its merged file
// extents, in ascending file order (the view invariant).
func (v *view) spans(off, n int) []span {
	if n <= 0 {
		return nil
	}
	var out []span
	k, end := off, off+n
	for k < end {
		tile, w := k/v.size, k%v.size
		ri := sort.SearchInts(v.cum, w+1) - 1
		pos := w - v.cum[ri]
		run := v.runs[ri]
		stretch := run[1] - pos
		if k+stretch > end {
			stretch = end - k
		}
		fileElem := int64(v.disp) + int64(tile)*int64(v.ext) + int64(run[0]+pos)
		bo := fileElem * int64(v.es)
		bn := stretch * v.es
		if last := len(out) - 1; last >= 0 && out[last].off+int64(out[last].n) == bo {
			out[last].n += bn
		} else {
			out = append(out, span{off: bo, n: bn})
		}
		k += stretch
	}
	return out
}

// elemsBelow counts the view elements whose file bytes lie entirely
// below fileBytes — the view-relative size of the file (MPI_SEEK_END).
func (v *view) elemsBelow(fileBytes int64) int64 {
	felems := fileBytes / int64(v.es) // whole elements the file holds
	limit := felems - int64(v.disp)
	if limit <= 0 {
		return 0
	}
	last := int64(v.runs[len(v.runs)-1][0] + v.runs[len(v.runs)-1][1] - 1)
	var full int64 // tiles whose every element lies below limit
	if limit > last {
		full = (limit-last-1)/int64(v.ext) + 1
	}
	total := full * int64(v.size)
	// Walk the (at most two) partially visible tiles after the full ones.
	for tile := full; ; tile++ {
		base := tile * int64(v.ext)
		if base+int64(v.runs[0][0]) >= limit {
			return total
		}
		for _, r := range v.runs {
			for i := 0; i < r[1]; i++ {
				if base+int64(r[0]+i) >= limit {
					return total
				}
				total++
			}
		}
	}
}

// File is one rank's handle on a shared file: an OS handle, the rank's
// compiled view, and its individual file pointer.
type File struct {
	f      *os.File
	path   string
	view   view
	fp     int64 // individual file pointer, in view elements
	stripe int64 // aggregation stripe width, bytes (twophase.go)
	closed bool
}

// Open opens (or creates, per flags) the file at path. The caller
// layers MPI amode semantics — collective agreement, append
// positioning, access checks — on top.
func Open(path string, flags int, perm os.FileMode) (*File, error) {
	f, err := os.OpenFile(path, flags, perm)
	if err != nil {
		return nil, &Error{Op: "open", Path: path, Err: err}
	}
	file := &File{f: f, path: path, stripe: DefaultStripe}
	file.view, _ = compileView(0, dtype.BasicType(dtype.U8), dtype.BasicType(dtype.U8))
	return file, nil
}

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// SetView installs a new view and resets the individual file pointer
// (MPI_File_set_view semantics).
func (f *File) SetView(disp int, etype, ftype *dtype.Type) error {
	if f.closed {
		return ErrClosed
	}
	v, err := compileView(disp, etype, ftype)
	if err != nil {
		return err
	}
	f.view = v
	f.fp = 0
	return nil
}

// ElemSize returns the wire size of one view element (the etype's).
func (f *File) ElemSize() int { return f.view.es }

// Tell returns the individual file pointer, in view elements.
func (f *File) Tell() int64 { return f.fp }

// SeekSet positions the individual file pointer, in view elements.
func (f *File) SeekSet(pos int64) error {
	if f.closed {
		return ErrClosed
	}
	if pos < 0 {
		return fmt.Errorf("%w: negative seek position %d", ErrView, pos)
	}
	f.fp = pos
	return nil
}

// Advance moves the individual file pointer by n view elements.
func (f *File) Advance(n int64) { f.fp += n }

// ViewSize returns the file's current size in view elements: the
// number of view elements wholly below the file's byte size.
func (f *File) ViewSize() (int64, error) {
	n, err := f.Size()
	if err != nil {
		return 0, err
	}
	return f.view.elemsBelow(n), nil
}

// Size returns the file's size in bytes.
func (f *File) Size() (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	st, err := f.f.Stat()
	if err != nil {
		return 0, &Error{Op: "stat", Path: f.path, Err: err}
	}
	return st.Size(), nil
}

// Truncate sets the file's size in bytes.
func (f *File) Truncate(n int64) error {
	if f.closed {
		return ErrClosed
	}
	if err := f.f.Truncate(n); err != nil {
		return &Error{Op: "truncate", Path: f.path, Err: err}
	}
	return nil
}

// Sync flushes the rank's writes to stable storage.
func (f *File) Sync() error {
	if f.closed {
		return ErrClosed
	}
	if err := f.f.Sync(); err != nil {
		return &Error{Op: "sync", Path: f.path, Err: err}
	}
	return nil
}

// Close releases the OS handle. Collective semantics (and
// delete-on-close) belong to the binding.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	if err := f.f.Close(); err != nil {
		return &Error{Op: "close", Path: f.path, Err: err}
	}
	return nil
}

// WriteView scatters wire (whole view elements) through the view
// starting at view element off, returning the bytes written.
func (f *File) WriteView(off int, wire []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if len(wire)%f.view.es != 0 {
		return 0, fmt.Errorf("%w: %d payload bytes not a multiple of element size %d", ErrView, len(wire), f.view.es)
	}
	pos := 0
	for _, s := range f.view.spans(off, len(wire)/f.view.es) {
		if _, err := f.f.WriteAt(wire[pos:pos+s.n], s.off); err != nil {
			return pos, &Error{Op: "write", Path: f.path, Err: err}
		}
		pos += s.n
	}
	return pos, nil
}

// ReadView gathers n view elements starting at view element off into a
// fresh wire buffer. got is the number of bytes actually present in
// the file; a read past end-of-file delivers the prefix and zero-fills
// the rest (MPI reads past EOF return fewer elements).
func (f *File) ReadView(off, n int) (wire []byte, got int, err error) {
	if f.closed {
		return nil, 0, ErrClosed
	}
	wire = make([]byte, n*f.view.es)
	pos := 0
	for _, s := range f.view.spans(off, n) {
		m, rerr := f.f.ReadAt(wire[pos:pos+s.n], s.off)
		pos += s.n
		got += m
		if rerr == io.EOF {
			// Spans ascend in file order, so nothing past this point
			// exists either.
			break
		}
		if rerr != nil {
			return wire, got, &Error{Op: "read", Path: f.path, Err: rerr}
		}
	}
	return wire, got, nil
}
