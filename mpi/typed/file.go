package typed

import (
	"fmt"

	"gompi/mpi"
)

// File is the generics face of mpi.File: the etype is inferred from
// the element type T, buffers are slices carrying their own counts,
// and offsets count T elements. T must be one of the seven native
// element types or a named primitive over one (the fixed-size classes
// a file view can address); structs and other OBJECT-routed types have
// no fixed wire size and are rejected at open.
type File[T any] struct {
	// F is the underlying classic handle, for the calls the typed
	// surface does not wrap (SetSize, Sync, Seek, views over other
	// etypes).
	F *mpi.File
	d *mpi.Datatype
}

// OpenFile opens path collectively over the communicator with the
// etype inferred from T (MPI_File_open + MPI_File_set_view's etype in
// one step). The view starts as the identity over T: element i of the
// file is T element i.
func OpenFile[T any](c Comm, path string, amode int) (*File[T], error) {
	var probe []T
	d := TypeOf[T]()
	if d == mpi.OBJECT {
		return nil, fmt.Errorf("typed: element type %T has no fixed wire size; files need a native element type", probe)
	}
	f, err := c.Intra().OpenFile(path, amode)
	if err != nil {
		return nil, err
	}
	if err := f.SetView(0, d, d); err != nil {
		f.Close() //nolint:errcheck // best-effort teardown
		return nil, err
	}
	return &File[T]{F: f, d: d}, nil
}

// SetView installs a view with T as the etype (MPI_File_set_view):
// disp counts T elements and filetype must be built over T's storage
// class. Collective; resets the individual file pointer.
func (f *File[T]) SetView(disp int, filetype *mpi.Datatype) error {
	return f.F.SetView(disp, f.d, filetype)
}

// Close closes the file. Collective.
func (f *File[T]) Close() error { return f.F.Close() }

// WriteAt writes buf at view element offset foff, independently of
// other ranks (MPI_File_write_at).
func (f *File[T]) WriteAt(buf []T, foff int) (*mpi.Status, error) {
	return f.F.WriteAt(int64(foff), buf, 0, len(buf), TypeOf[T]())
}

// ReadAt reads len(buf) elements from view element offset foff,
// independently of other ranks (MPI_File_read_at). Count reports how
// many elements a read that hit end-of-file delivered.
func (f *File[T]) ReadAt(buf []T, foff int) (*mpi.Status, error) {
	return f.F.ReadAt(int64(foff), buf, 0, len(buf), TypeOf[T]())
}

// Write writes buf at the individual file pointer (MPI_File_write).
func (f *File[T]) Write(buf []T) (*mpi.Status, error) {
	return f.F.Write(buf, 0, len(buf), TypeOf[T]())
}

// Read reads len(buf) elements at the individual file pointer
// (MPI_File_read).
func (f *File[T]) Read(buf []T) (*mpi.Status, error) {
	return f.F.Read(buf, 0, len(buf), TypeOf[T]())
}

// WriteAllAt is the collective two-phase write of buf at view element
// offset foff (MPI_File_write_at_all). Every member must call it;
// buffer lengths may differ, including zero.
func (f *File[T]) WriteAllAt(buf []T, foff int) (*mpi.Status, error) {
	return f.F.WriteAtAll(int64(foff), buf, 0, len(buf), TypeOf[T]())
}

// ReadAllAt is the collective two-phase read of len(buf) elements at
// view element offset foff (MPI_File_read_at_all).
func (f *File[T]) ReadAllAt(buf []T, foff int) (*mpi.Status, error) {
	return f.F.ReadAtAll(int64(foff), buf, 0, len(buf), TypeOf[T]())
}

// IwriteAllAt starts the nonblocking collective write of buf at view
// element offset foff (MPI_File_iwrite_at_all); buf must not be
// modified until the request completes.
func (f *File[T]) IwriteAllAt(buf []T, foff int) (*mpi.Request, error) {
	return f.F.IwriteAtAll(int64(foff), buf, 0, len(buf), TypeOf[T]())
}

// IreadAllAt starts the nonblocking collective read of len(buf)
// elements at view element offset foff (MPI_File_iread_at_all); buf is
// filled when the request completes.
func (f *File[T]) IreadAllAt(buf []T, foff int) (*mpi.Request, error) {
	return f.F.IreadAtAll(int64(foff), buf, 0, len(buf), TypeOf[T]())
}

// WriteAll is the collective write at the individual file pointer
// (MPI_File_write_all).
func (f *File[T]) WriteAll(buf []T) (*mpi.Status, error) {
	return f.F.WriteAll(buf, 0, len(buf), TypeOf[T]())
}

// ReadAll is the collective read at the individual file pointer
// (MPI_File_read_all).
func (f *File[T]) ReadAll(buf []T) (*mpi.Status, error) {
	return f.F.ReadAll(buf, 0, len(buf), TypeOf[T]())
}
