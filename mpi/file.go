package mpi

import (
	"os"

	"gompi/internal/coll"
	"gompi/internal/dtype"
	"gompi/internal/pio"
)

// File is a shared file opened collectively over a communicator
// (MPI-2 §9, MPI_File) — the parallel I/O layer the paper's §5.3
// roadmap names alongside the one-sided operations of Win. A File
// carries a per-rank view (SetView) mapping the rank's element index
// space onto file offsets through a filetype's typemap, independent
// positioned and file-pointer I/O, and collective two-phase I/O
// (ReadAtAll/WriteAtAll and the individual-pointer ReadAll/WriteAll)
// built on the collective schedule engine — so every collective form
// also has a nonblocking I* variant returning a *Request, whose WaitCtx
// cancels it at the exchange rounds' send/receive boundaries and whose
// completion status is the transfer status the blocking form returns.
//
// All offsets and displacements are in elements, following the
// binding's convention: view displacements and file offsets count
// etype elements, buffer offsets count buffer base elements. Files
// store the engine's little-endian wire format, so they are portable
// across the SM and DM modes and across runs.
//
// A File is private to its rank: like the rest of the binding's
// handles, concurrent calls on one File from several goroutines of the
// same rank are not supported.
type File struct {
	comm  *Intracomm // private duplicate owning the file's contexts
	pf    *pio.File
	amode int

	disp         int
	etype, ftype *Datatype
	freed        bool
}

// Access-mode flags for OpenFile (MPI_MODE_*, MPI-2 §9.2.1). Exactly
// one of ModeRdonly, ModeWronly, ModeRdwr must be given.
const (
	// ModeCreate creates the file if it does not exist.
	ModeCreate = 1
	// ModeRdonly opens for reading only.
	ModeRdonly = 2
	// ModeWronly opens for writing only.
	ModeWronly = 4
	// ModeRdwr opens for reading and writing.
	ModeRdwr = 8
	// ModeDeleteOnClose deletes the file when it is closed.
	ModeDeleteOnClose = 16
	// ModeExcl errors if ModeCreate finds the file already existing.
	ModeExcl = 64
	// ModeAppend positions every rank's file pointer at end of file.
	ModeAppend = 128
)

// Seek whence values (MPI_SEEK_*).
const (
	// SeekSet positions relative to the start of the view.
	SeekSet = 0
	// SeekCur positions relative to the current file pointer.
	SeekCur = 1
	// SeekEnd positions relative to the end of file, in view elements.
	SeekEnd = 2
)

// checkAmode validates an access-mode combination (MPI_ERR_AMODE).
func checkAmode(amode int) error {
	const all = ModeCreate | ModeRdonly | ModeWronly | ModeRdwr |
		ModeDeleteOnClose | ModeExcl | ModeAppend
	if amode&^all != 0 {
		return errf(ErrAmode, "unknown amode bits %#x", amode&^all)
	}
	acc := amode & (ModeRdonly | ModeWronly | ModeRdwr)
	if acc != ModeRdonly && acc != ModeWronly && acc != ModeRdwr {
		return errf(ErrAmode, "amode must include exactly one of ModeRdonly, ModeWronly, ModeRdwr")
	}
	if amode&ModeRdonly != 0 && amode&(ModeCreate|ModeExcl) != 0 {
		return errf(ErrAmode, "ModeRdonly cannot be combined with ModeCreate or ModeExcl")
	}
	if amode&ModeExcl != 0 && amode&ModeCreate == 0 {
		return errf(ErrAmode, "ModeExcl requires ModeCreate")
	}
	return nil
}

// osFlags translates an amode to os.OpenFile flags; only the first
// opener (rank 0) performs creation, so Create/Excl never race.
func osFlags(amode int, first bool) int {
	var fl int
	switch {
	case amode&ModeRdonly != 0:
		fl = os.O_RDONLY
	case amode&ModeWronly != 0:
		fl = os.O_WRONLY
	default:
		fl = os.O_RDWR
	}
	if first {
		if amode&ModeCreate != 0 {
			fl |= os.O_CREATE
		}
		if amode&ModeExcl != 0 {
			fl |= os.O_EXCL
		}
	}
	return fl
}

// fileStatus builds the status of a file transfer: bytes on the wire
// format and whole base elements of the buffer's class delivered.
func fileStatus(rank, bytes, elements int) *Status {
	return &Status{Source: rank, Tag: 0, bytes: bytes, elements: elements}
}

// OpenFile opens path over the communicator (MPI_File_open).
// Collective: every member must call it with the same path and amode.
// Rank 0 alone performs creation, so ModeCreate and ModeExcl are
// race-free within the job; in DM mode all ranks must see the same
// filesystem. When rank 0's open fails, every member returns its class
// and message. The file starts with the identity view (displacement 0,
// etype and filetype MPI.BYTE).
func (c *Intracomm) OpenFile(path string, amode int) (*File, error) {
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	if err := checkAmode(amode); err != nil {
		return nil, c.raise(err)
	}
	priv, err := c.privateDup(".file")
	if err != nil {
		return nil, err
	}
	var pf *pio.File
	fail := func(err error) (*File, error) {
		if pf != nil {
			pf.Close() //nolint:errcheck // best-effort teardown
		}
		priv.Free() //nolint:errcheck // best-effort teardown
		return nil, c.raise(err)
	}

	// Rank 0 opens first — it alone creates — and its outcome reaches
	// every member, so peers neither race the creation nor open a file
	// that was never created.
	if _, err := priv.leaderBcast(0, func() (_ []byte, err error) {
		pf, err = pio.Open(path, osFlags(amode, true), 0o644)
		return nil, mapErr(err)
	}); err != nil {
		return fail(err)
	}
	var openErr error
	if priv.Rank() != 0 {
		pf, openErr = pio.Open(path, osFlags(amode, false), 0o644)
	}
	// Append positioning stats the file; fold its outcome into the
	// collective verdict below so a rank-local failure cannot leave
	// this member tearing down while peers proceed.
	var appendAt int64
	if openErr == nil && amode&ModeAppend != 0 {
		appendAt, openErr = pf.ViewSize()
	}

	// Success must be collective: a member that failed poisons the open
	// everywhere.
	ok := []int32{1}
	if openErr != nil {
		ok[0] = 0
	}
	res, err := priv.cl.Allreduce(ok, coll.Min)
	if err != nil {
		return fail(priv.collErr(err))
	}
	if res.([]int32)[0] == 0 {
		if openErr != nil {
			return fail(mapErr(openErr))
		}
		return fail(errf(ErrIO, "open of %q failed on a peer rank", path))
	}

	f := &File{comm: priv, pf: pf, amode: amode, disp: 0, etype: BYTE, ftype: BYTE}
	if amode&ModeAppend != 0 {
		pf.SeekSet(appendAt) //nolint:errcheck // non-negative by construction
	}
	return f, nil
}

func (f *File) ok() error {
	switch {
	case f == nil:
		return errf(ErrFile, "nil file")
	case f.freed:
		return errf(ErrFile, "file %q has been closed", f.pf.Path())
	}
	return nil
}

func (f *File) readable() error {
	if f.amode&ModeWronly != 0 {
		return errf(ErrAccess, "file %q is write-only", f.pf.Path())
	}
	return nil
}

func (f *File) writable() error {
	if f.amode&ModeRdonly != 0 {
		return errf(ErrAccess, "file %q is read-only", f.pf.Path())
	}
	return nil
}

// Amode returns the access mode the file was opened with
// (MPI_File_get_amode).
func (f *File) Amode() int { return f.amode }

// Path returns the file's path.
func (f *File) Path() string { return f.pf.Path() }

// SetView installs the rank's file view (MPI_File_set_view): the file
// appears as etype elements starting disp etype-elements into the
// file, of which this rank sees exactly those the filetype's typemap
// names, tiled with the filetype's extent. The filetype must be built
// over etype's storage class with strictly increasing, non-overlapping
// displacements. Collective — all members must call it, though each
// may install a different view — and it resets the individual file
// pointer to zero.
func (f *File) SetView(disp int, etype, filetype *Datatype) error {
	if err := f.ok(); err != nil {
		return f.comm.raise(err)
	}
	// Synchronize before validating: a member whose arguments are bad
	// still participates in the collective, so peers are not left
	// hanging in the barrier.
	if err := f.comm.cl.Barrier(); err != nil {
		return f.comm.raise(f.comm.collErr(err))
	}
	if err := f.comm.checkType(etype); err != nil {
		return f.comm.raise(err)
	}
	if err := f.comm.checkType(filetype); err != nil {
		return f.comm.raise(err)
	}
	if err := f.pf.SetView(disp, etype.t, filetype.t); err != nil {
		return f.comm.raise(mapErr(err))
	}
	f.disp, f.etype, f.ftype = disp, etype, filetype
	return nil
}

// GetView returns the rank's current view (MPI_File_get_view).
func (f *File) GetView() (disp int, etype, filetype *Datatype) {
	return f.disp, f.etype, f.ftype
}

// Size returns the file's size in bytes (MPI_File_get_size).
func (f *File) Size() (int64, error) {
	if err := f.ok(); err != nil {
		return 0, f.comm.raise(err)
	}
	n, err := f.pf.Size()
	return n, f.comm.raise(mapErr(err))
}

// SetSize truncates or extends the file to n bytes
// (MPI_File_set_size). Collective: rank 0 resizes the file, and when
// that fails every member returns its class and message.
func (f *File) SetSize(n int64) error {
	if err := f.ok(); err != nil {
		return f.comm.raise(err)
	}
	if err := f.writable(); err != nil {
		return f.comm.raise(err)
	}
	_, err := f.comm.leaderBcast(0, func() ([]byte, error) {
		return nil, mapErr(f.pf.Truncate(n))
	})
	return f.comm.raise(err)
}

// Sync flushes every member's writes to stable storage
// (MPI_File_sync). Collective.
func (f *File) Sync() error {
	if err := f.ok(); err != nil {
		return f.comm.raise(err)
	}
	serr := f.pf.Sync()
	if err := f.comm.cl.Barrier(); err != nil {
		return f.comm.raise(f.comm.collErr(err))
	}
	return f.comm.raise(mapErr(serr))
}

// Close closes the file (MPI_File_close). Collective; with
// ModeDeleteOnClose the file is removed once every member has closed.
func (f *File) Close() error {
	if err := f.ok(); err != nil {
		return f.comm.raise(err)
	}
	f.freed = true
	cerr := f.pf.Close()
	if err := f.comm.cl.Barrier(); err != nil {
		return f.comm.raise(f.comm.collErr(err))
	}
	if f.amode&ModeDeleteOnClose != 0 && f.comm.Rank() == 0 {
		if rerr := os.Remove(f.pf.Path()); rerr != nil && cerr == nil {
			cerr = &pio.Error{Op: "delete", Path: f.pf.Path(), Err: rerr}
		}
	}
	if err := f.comm.Free(); err != nil && cerr == nil {
		return f.comm.raise(err)
	}
	return f.comm.raise(mapErr(cerr))
}

// Seek positions the individual file pointer (MPI_File_seek), in view
// elements, and returns the new position. SeekEnd measures the current
// end of file in view elements.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if err := f.ok(); err != nil {
		return 0, f.comm.raise(err)
	}
	pos := offset
	switch whence {
	case SeekSet:
	case SeekCur:
		pos += f.pf.Tell()
	case SeekEnd:
		end, err := f.pf.ViewSize()
		if err != nil {
			return 0, f.comm.raise(mapErr(err))
		}
		pos += end
	default:
		return 0, f.comm.raise(errf(ErrArg, "bad seek whence %d", whence))
	}
	if err := f.pf.SeekSet(pos); err != nil {
		return 0, f.comm.raise(mapErr(err))
	}
	return pos, nil
}

// Tell returns the individual file pointer, in view elements
// (MPI_File_get_position).
func (f *File) Tell() int64 { return f.pf.Tell() }

// checkAccess runs the local validation every read and write entry
// point shares: an open file whose access mode admits the transfer
// (access is f.readable or f.writable), a datatype a file view can
// carry, and a non-negative offset. The datatype's storage class must
// agree with the view's etype class, with MPI.BYTE (on either side)
// matching anything — the file-interface typematch rule and the raw
// escape hatch the standard grants MPI_BYTE.
func (f *File) checkAccess(access func() error, d *Datatype, foff int64) error {
	if err := f.ok(); err != nil {
		return err
	}
	if err := access(); err != nil {
		return err
	}
	if err := f.comm.checkType(d); err != nil {
		return err
	}
	bc, ec := d.t.Class(), f.etype.t.Class()
	switch {
	case bc == dtype.Obj:
		return errf(ErrType, "OBJECT buffers cannot travel through file views")
	case bc != ec && bc != dtype.U8 && ec != dtype.U8:
		return errf(ErrType, "buffer datatype %s does not match the view's etype %s", d.Name(), f.etype.Name())
	case foff < 0:
		return errf(ErrArg, "negative file offset %d", foff)
	}
	return nil
}

// prepWrite runs the local validation and packing shared by every
// write entry point. It returns the wire payload and the status a
// successful write completes with.
func (f *File) prepWrite(s section, foff int64) ([]byte, *Status, error) {
	if err := f.checkAccess(f.writable, s.d, foff); err != nil {
		return nil, nil, err
	}
	wire, err := s.pack(nil)
	if err != nil {
		return nil, nil, err
	}
	if es := f.pf.ElemSize(); len(wire)%es != 0 {
		return nil, nil, errf(ErrArg, "write of %d bytes is not a multiple of the view's %d-byte etype", len(wire), es)
	}
	return wire, fileStatus(f.comm.Rank(), len(wire), len(wire)/s.d.t.Class().WireSize()), nil
}

// prepRead runs the local validation shared by every read entry point
// and returns the transfer size in view elements.
func (f *File) prepRead(s section, foff int64) (int, error) {
	if err := f.checkAccess(f.readable, s.d, foff); err != nil {
		return 0, err
	}
	if _, err := s.buf.Check(s.d.t); err != nil {
		return 0, mapErr(err)
	}
	need := s.d.t.WireBytes(s.count)
	es := f.pf.ElemSize()
	if need%es != 0 {
		return 0, errf(ErrArg, "read of %d bytes is not a multiple of the view's %d-byte etype", need, es)
	}
	return need / es, nil
}

// depositRead unpacks the gathered wire bytes into the caller's buffer
// section, delivering only the whole elements the file held.
func (f *File) depositRead(wire []byte, got int, s section) (*Status, error) {
	des := s.d.t.Class().WireSize()
	full := got / des
	if _, err := s.unpack(wire[:full*des]); err != nil {
		return nil, err
	}
	return fileStatus(f.comm.Rank(), got, full), nil
}

// WriteAt writes the buffer section at view element offset foff,
// independently of other ranks (MPI_File_write_at). The individual
// file pointer is not used or updated.
func (f *File) WriteAt(foff int64, buf any, offset, count int, d *Datatype) (*Status, error) {
	wire, st, err := f.prepWrite(section{dtype.BufOf(buf), offset, count, d}, foff)
	if err != nil {
		return nil, f.comm.raise(err)
	}
	if _, err := f.pf.WriteView(int(foff), wire); err != nil {
		return nil, f.comm.raise(mapErr(err))
	}
	return st, nil
}

// ReadAt reads the buffer section from view element offset foff,
// independently of other ranks (MPI_File_read_at). Reading past end of
// file delivers the available prefix; the status's GetCount reports
// the elements actually read.
func (f *File) ReadAt(foff int64, buf any, offset, count int, d *Datatype) (*Status, error) {
	s := section{dtype.BufOf(buf), offset, count, d}
	n, err := f.prepRead(s, foff)
	if err != nil {
		return nil, f.comm.raise(err)
	}
	wire, got, err := f.pf.ReadView(int(foff), n)
	if err != nil {
		return nil, f.comm.raise(mapErr(err))
	}
	st, derr := f.depositRead(wire, got, s)
	return st, f.comm.raise(derr)
}

// Write writes the buffer section at the individual file pointer and
// advances it by the elements written (MPI_File_write).
func (f *File) Write(buf any, offset, count int, d *Datatype) (*Status, error) {
	st, err := f.WriteAt(f.pf.Tell(), buf, offset, count, d)
	if err != nil {
		return st, err
	}
	f.pf.Advance(int64(st.bytes / f.pf.ElemSize()))
	return st, nil
}

// Read reads the buffer section at the individual file pointer and
// advances it by the elements actually read (MPI_File_read).
func (f *File) Read(buf any, offset, count int, d *Datatype) (*Status, error) {
	st, err := f.ReadAt(f.pf.Tell(), buf, offset, count, d)
	if err != nil {
		return st, err
	}
	f.pf.Advance(int64(st.bytes / f.pf.ElemSize()))
	return st, nil
}

// WriteAtAll is the collective write at an explicit offset
// (MPI_File_write_at_all), implemented as two-phase I/O: member data
// is exchanged to stripe-owning aggregator ranks through the
// collective schedule engine, and each aggregator issues the large
// contiguous filesystem writes. Every member must call it (counts may
// differ, including zero).
func (f *File) WriteAtAll(foff int64, buf any, offset, count int, d *Datatype) (*Status, error) {
	p, err := f.planWriteAll(foff, section{dtype.BufOf(buf), offset, count, d})
	if err := f.comm.runColl(p, err); err != nil {
		return nil, err
	}
	return p.st, nil
}

// IwriteAtAll starts a nonblocking collective write at an explicit
// offset (MPI_File_iwrite_at_all); both the exchange and the
// filesystem writes proceed in the background. The request completes
// with the status WriteAtAll returns.
func (f *File) IwriteAtAll(foff int64, buf any, offset, count int, d *Datatype) (*Request, error) {
	return f.comm.startColl(f.planWriteAll(foff, section{dtype.BufOf(buf), offset, count, d}))
}

// planWriteAll validates and packs the write and builds its two-phase
// schedule, whose plan carries the transfer status; a member failing
// local validation consumes its collective instance (noColl) so peers
// stay tag-aligned.
func (f *File) planWriteAll(foff int64, s section) (*collPlan, error) {
	wire, st, err := f.prepWrite(s, foff)
	if err != nil {
		return f.comm.noColl(err)
	}
	plan, err := f.pf.WriteAllPlan(f.comm.cl, int(foff), wire)
	if err != nil {
		// The plan minted the instance before failing; no skip.
		return nil, mapErr(err)
	}
	return &collPlan{plan: plan, st: st}, nil
}

// ReadAtAll is the collective read at an explicit offset
// (MPI_File_read_at_all): aggregator ranks issue the large contiguous
// filesystem reads for their stripes and the data is exchanged back
// through the collective schedule engine. Every member must call it.
func (f *File) ReadAtAll(foff int64, buf any, offset, count int, d *Datatype) (*Status, error) {
	p, err := f.planReadAll(foff, section{dtype.BufOf(buf), offset, count, d})
	if err := f.comm.runColl(p, err); err != nil {
		return nil, err
	}
	return p.st, nil
}

// IreadAtAll starts a nonblocking collective read at an explicit
// offset (MPI_File_iread_at_all). The buffer is filled when the
// request completes; it must not be touched before then. The request
// completes with the status ReadAtAll returns: GetCount reports the
// elements the file actually held, so a short read at end-of-file is
// detectable on this path too.
func (f *File) IreadAtAll(foff int64, buf any, offset, count int, d *Datatype) (*Request, error) {
	return f.comm.startColl(f.planReadAll(foff, section{dtype.BufOf(buf), offset, count, d}))
}

// planReadAll validates the read and builds its two-phase schedule,
// whose fin deposits what the file held into s and sets the plan's
// transfer status; a member failing local validation consumes its
// collective instance (noColl).
func (f *File) planReadAll(foff int64, s section) (*collPlan, error) {
	n, err := f.prepRead(s, foff)
	if err != nil {
		return f.comm.noColl(err)
	}
	plan, err := f.pf.ReadAllPlan(f.comm.cl, int(foff), n)
	if err != nil {
		// The plan minted the instance before failing; no skip.
		return nil, mapErr(err)
	}
	p := &collPlan{plan: plan}
	p.fin = func(res any) (err error) {
		rr := res.(*pio.ReadResult)
		p.st, err = f.depositRead(rr.Wire, rr.Got, s)
		return err
	}
	return p, nil
}

// WriteAll is the collective write at the individual file pointer
// (MPI_File_write_all); the pointer advances by the requested elements
// at the call.
func (f *File) WriteAll(buf any, offset, count int, d *Datatype) (*Status, error) {
	return f.WriteAtAll(f.advanceFor(count, d), buf, offset, count, d)
}

// IwriteAll starts a nonblocking collective write at the individual
// file pointer (MPI_File_iwrite_all); the pointer advances by the
// requested elements at the call, not at completion.
func (f *File) IwriteAll(buf any, offset, count int, d *Datatype) (*Request, error) {
	return f.IwriteAtAll(f.advanceFor(count, d), buf, offset, count, d)
}

// ReadAll is the collective read at the individual file pointer
// (MPI_File_read_all); the pointer advances by the requested elements
// at the call.
func (f *File) ReadAll(buf any, offset, count int, d *Datatype) (*Status, error) {
	return f.ReadAtAll(f.advanceFor(count, d), buf, offset, count, d)
}

// IreadAll starts a nonblocking collective read at the individual file
// pointer (MPI_File_iread_all); the pointer advances by the requested
// elements at the call, not at completion.
func (f *File) IreadAll(buf any, offset, count int, d *Datatype) (*Request, error) {
	return f.IreadAtAll(f.advanceFor(count, d), buf, offset, count, d)
}

// advanceFor returns the current individual file pointer and advances
// it by the transfer's size in view elements. Collective forms with an
// individual pointer update it at the call on every path — success or
// failure — so members that mix in erroneous calls stay
// pointer-aligned with peers whose matching call proceeded.
func (f *File) advanceFor(count int, d *Datatype) int64 {
	at := f.pf.Tell()
	if d == nil || f.freed {
		return at
	}
	if n := d.t.WireBytes(count); n > 0 {
		f.pf.Advance(int64(n / f.pf.ElemSize()))
	}
	return at
}
