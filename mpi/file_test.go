package mpi_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gompi/mpi"
)

// TestFileStridedCollectiveRoundTrip is the subsystem's acceptance
// shape: a 4-rank collective WriteAtAll through a strided view (each
// rank a column block of a row-major matrix), followed by a collective
// ReadAtAll through the same view, must round-trip bit-exact — and the
// bytes on disk must be the matrix in global row-major order.
func TestFileStridedCollectiveRoundTrip(t *testing.T) {
	// 512 KiB of DOUBLE: eight default stripes, two per aggregator, so
	// every rank's column block reaches every aggregator.
	const ranks, side = 4, 256
	const cpr = side / ranks // columns per rank
	path := filepath.Join(t.TempDir(), "matrix.bin")
	err := mpi.Run(ranks, func(env *mpi.Env) error {
		w := env.CommWorld()
		f, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeRdwr)
		if err != nil {
			return err
		}
		defer f.Close()

		// Rank r's file view: its column block of the row-major matrix.
		ft, err := mpi.TypeVector(side, cpr, side, mpi.DOUBLE)
		if err != nil {
			return err
		}
		ft.Commit()
		if err := f.SetView(w.Rank()*cpr, mpi.DOUBLE, ft); err != nil {
			return err
		}

		mine := make([]float64, side*cpr)
		for i := range mine {
			mine[i] = float64(w.Rank())*1e6 + float64(i) + 0.25
		}
		st, err := f.WriteAtAll(0, mine, 0, len(mine), mpi.DOUBLE)
		if err != nil {
			return err
		}
		if got := st.GetCount(mpi.DOUBLE); got != len(mine) {
			return fmt.Errorf("rank %d: wrote %d elements, want %d", w.Rank(), got, len(mine))
		}

		back := make([]float64, side*cpr)
		st, err = f.ReadAtAll(0, back, 0, len(back), mpi.DOUBLE)
		if err != nil {
			return err
		}
		if got := st.GetCount(mpi.DOUBLE); got != len(back) {
			return fmt.Errorf("rank %d: read %d elements, want %d", w.Rank(), got, len(back))
		}
		if !reflect.DeepEqual(mine, back) {
			return fmt.Errorf("rank %d: collective round trip not bit-exact", w.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Cross-check the on-disk layout from outside MPI.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != side*side*8 {
		t.Fatalf("file holds %d bytes, want %d", len(raw), side*side*8)
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			owner := c / cpr
			want := float64(owner)*1e6 + float64(r*cpr+c-owner*cpr) + 0.25
			got := math.Float64frombits(binary.LittleEndian.Uint64(raw[(r*side+c)*8:]))
			if got != want {
				t.Fatalf("matrix[%d,%d] = %v, want %v", r, c, got, want)
			}
		}
	}
}

// TestFileIndependentAndPointerIO exercises WriteAt/ReadAt, the
// file-pointer forms and Seek, single rank.
func TestFileIndependentAndPointerIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "indep.bin")
	err := mpi.Run(1, func(env *mpi.Env) error {
		w := env.CommWorld()
		f, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeRdwr)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := f.SetView(0, mpi.INT, mpi.INT); err != nil {
			return err
		}
		data := []int32{5, 6, 7, 8}
		if _, err := f.WriteAt(2, data, 0, 4, mpi.INT); err != nil {
			return err
		}
		// Pointer I/O: write two more at the pointer, then seek around.
		if _, err := f.Write([]int32{1, 2}, 0, 2, mpi.INT); err != nil {
			return err
		}
		if pos := f.Tell(); pos != 2 {
			return fmt.Errorf("tell after Write = %d, want 2", pos)
		}
		if _, err := f.Seek(0, mpi.SeekEnd); err != nil {
			return err
		}
		if pos := f.Tell(); pos != 6 {
			return fmt.Errorf("tell after SeekEnd = %d, want 6", pos)
		}
		if _, err := f.Seek(-4, mpi.SeekCur); err != nil {
			return err
		}
		buf := make([]int32, 4)
		st, err := f.Read(buf, 0, 4, mpi.INT)
		if err != nil {
			return err
		}
		if st.GetCount(mpi.INT) != 4 || !reflect.DeepEqual(buf, data) {
			return fmt.Errorf("Read got %v (count %d)", buf, st.GetCount(mpi.INT))
		}
		// Reading past EOF delivers the available prefix.
		big := make([]int32, 10)
		st, err = f.ReadAt(4, big, 0, 10, mpi.INT)
		if err != nil {
			return err
		}
		if st.GetCount(mpi.INT) != 2 || big[0] != 7 || big[1] != 8 {
			return fmt.Errorf("EOF read: count=%d buf=%v", st.GetCount(mpi.INT), big)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFileAmodeAndAccessErrors(t *testing.T) {
	dir := t.TempDir()
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		// Invalid amode combinations are local errors (MPI_ERR_AMODE).
		for _, amode := range []int{
			0,                             // no access bits
			mpi.ModeRdonly | mpi.ModeRdwr, // two access bits
			mpi.ModeRdonly | mpi.ModeCreate,
			mpi.ModeWronly | mpi.ModeExcl, // Excl without Create
		} {
			if _, err := w.OpenFile(filepath.Join(dir, "x"), amode); mpi.ClassOf(err) != mpi.ErrAmode {
				return fmt.Errorf("amode %#x: got %v, want MPI_ERR_AMODE", amode, err)
			}
		}

		path := filepath.Join(dir, "access.bin")
		f, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeWronly)
		if err != nil {
			return err
		}
		buf := []byte{1}
		if _, err := f.ReadAt(0, buf, 0, 1, mpi.BYTE); mpi.ClassOf(err) != mpi.ErrAccess {
			return fmt.Errorf("read on write-only file: got %v, want MPI_ERR_ACCESS", err)
		}
		if err := f.Close(); err != nil {
			return err
		}

		f, err = w.OpenFile(path, mpi.ModeRdonly)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(0, buf, 0, 1, mpi.BYTE); mpi.ClassOf(err) != mpi.ErrAccess {
			return fmt.Errorf("write on read-only file: got %v, want MPI_ERR_ACCESS", err)
		}
		// Collective write on a read-only file: every member fails
		// locally and consumes the instance; the communicator survives.
		if _, err := f.WriteAtAll(0, buf, 0, 1, mpi.BYTE); mpi.ClassOf(err) != mpi.ErrAccess {
			return fmt.Errorf("collective write on read-only file: got %v, want MPI_ERR_ACCESS", err)
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}

		// Excl on an existing file fails collectively.
		if _, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeExcl|mpi.ModeWronly); mpi.ClassOf(err) != mpi.ErrIO {
			return fmt.Errorf("excl on existing file: got %v, want MPI_ERR_IO", err)
		}

		// Operations on a closed file report MPI_ERR_FILE.
		f, err = w.OpenFile(path, mpi.ModeRdonly)
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if _, err := f.ReadAt(0, buf, 0, 1, mpi.BYTE); mpi.ClassOf(err) != mpi.ErrFile {
			return fmt.Errorf("read on closed file: got %v, want MPI_ERR_FILE", err)
		}
		if _, err := f.ReadAtAll(0, buf, 0, 1, mpi.BYTE); mpi.ClassOf(err) != mpi.ErrFile {
			return fmt.Errorf("collective read on closed file: got %v, want MPI_ERR_FILE", err)
		}
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFileOpenMissingFails(t *testing.T) {
	dir := t.TempDir()
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		_, err := w.OpenFile(filepath.Join(dir, "nope.bin"), mpi.ModeRdonly)
		if mpi.ClassOf(err) != mpi.ErrIO {
			return fmt.Errorf("open missing: got %v, want MPI_ERR_IO", err)
		}
		// The communicator must stay healthy after the failed open.
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFileNonblockingCollective(t *testing.T) {
	path := filepath.Join(t.TempDir(), "icoll.bin")
	const ranks, per = 4, 1000
	err := mpi.Run(ranks, func(env *mpi.Env) error {
		w := env.CommWorld()
		f, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeRdwr)
		if err != nil {
			return err
		}
		defer f.Close()
		mine := make([]int64, per)
		for i := range mine {
			mine[i] = int64(w.Rank()*per + i)
		}
		req, err := f.IwriteAtAll(int64(w.Rank()*per*8), mine, 0, per, mpi.LONG)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		back := make([]int64, per)
		rreq, err := f.IreadAtAll(int64(w.Rank()*per*8), back, 0, per, mpi.LONG)
		if err != nil {
			return err
		}
		if _, err := rreq.Wait(); err != nil {
			return err
		}
		if !reflect.DeepEqual(mine, back) {
			return fmt.Errorf("rank %d: nonblocking round trip mismatch", w.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFileCollectiveCtxCancel checks that a collective file write
// stalled on an absent peer unblocks promptly when its WaitCtx's
// context fires, that the late member's matching call fails with
// ErrOther, and that the file's next collective works for both.
func TestFileCollectiveCtxCancel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cancel.bin")
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		f, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeRdwr)
		if err != nil {
			return err
		}
		defer f.Close()
		data := []byte{1, 2, 3, 4}
		if w.Rank() == 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			req, err := f.IwriteAtAll(0, data, 0, len(data), mpi.BYTE)
			if err != nil {
				return err
			}
			if _, err := req.WaitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("stalled collective write returned %v, want deadline", err)
			}
			// Catch up with rank 1's pending collective so the pair
			// stays aligned, then prove the file is still usable.
			if _, err := f.WriteAtAll(4, data, 0, len(data), mpi.BYTE); err != nil {
				return err
			}
		} else {
			time.Sleep(150 * time.Millisecond)
			// The matching call for the one rank 0 cancelled...
			if _, err := f.WriteAtAll(0, data, 0, len(data), mpi.BYTE); mpi.ClassOf(err) != mpi.ErrOther {
				return fmt.Errorf("late write of the cancelled instance: %v, want %v", err, mpi.ErrOther)
			}
			// ...and the recovery collective.
			if _, err := f.WriteAtAll(4, data, 0, len(data), mpi.BYTE); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFileAppendAndDeleteOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "append.bin")
	if err := os.WriteFile(path, []byte{9, 9, 9}, 0o644); err != nil {
		t.Fatal(err)
	}
	err := mpi.Run(1, func(env *mpi.Env) error {
		w := env.CommWorld()
		f, err := w.OpenFile(path, mpi.ModeWronly|mpi.ModeAppend|mpi.ModeDeleteOnClose)
		if err != nil {
			return err
		}
		if f.Tell() != 3 {
			return fmt.Errorf("append position = %d, want 3", f.Tell())
		}
		if _, err := f.Write([]byte{7}, 0, 1, mpi.BYTE); err != nil {
			return err
		}
		n, err := f.Size()
		if err != nil {
			return err
		}
		if n != 4 {
			return fmt.Errorf("size = %d, want 4", n)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("delete-on-close left the file behind: %v", err)
	}
}

// TestFileEtypeMatchAndIreadStatus covers the file-interface
// typematch rule (buffer class must agree with the view's etype, with
// MPI.BYTE matching anything) and the transfer status a nonblocking
// collective completes with: an EOF short read reports its short count,
// and a write reports what it wrote, as the blocking forms do.
func TestFileEtypeMatchAndIreadStatus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "etype.bin")
	err := mpi.Run(1, func(env *mpi.Env) error {
		w := env.CommWorld()
		f, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeRdwr)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := f.SetView(0, mpi.DOUBLE, mpi.DOUBLE); err != nil {
			return err
		}
		// An int32 buffer through a DOUBLE view would silently
		// reinterpret raw bytes; the typematch rule rejects it.
		if _, err := f.WriteAt(0, []int32{1, 2}, 0, 2, mpi.INT); mpi.ClassOf(err) != mpi.ErrType {
			return fmt.Errorf("int buffer through double view: got %v, want MPI_ERR_TYPE", err)
		}
		// MPI.BYTE is the escape hatch on either side.
		if _, err := f.WriteAt(0, make([]byte, 16), 0, 16, mpi.BYTE); err != nil {
			return fmt.Errorf("byte buffer through double view: %v", err)
		}
		// 16 bytes = 2 doubles; a 5-double nonblocking collective read
		// must report the short count in the status Wait returns.
		buf := make([]float64, 5)
		req, err := f.IreadAtAll(0, buf, 0, 5, mpi.DOUBLE)
		if err != nil {
			return err
		}
		st, err := req.Wait()
		if err != nil {
			return err
		}
		if st.GetCount(mpi.DOUBLE) != 2 {
			return fmt.Errorf("status after EOF IreadAtAll = %+v, want count 2", st)
		}
		// A 3-double collective write reports 3, blocking or not.
		st, err = f.WriteAtAll(2, []float64{1, 2, 3}, 0, 3, mpi.DOUBLE)
		if err != nil {
			return err
		}
		if st.GetCount(mpi.DOUBLE) != 3 {
			return fmt.Errorf("status of WriteAtAll = %+v, want count 3", st)
		}
		if req, err = f.IwriteAtAll(5, []float64{4, 5, 6}, 0, 3, mpi.DOUBLE); err != nil {
			return err
		}
		if st, err = req.Wait(); err != nil {
			return err
		}
		if st.GetCount(mpi.DOUBLE) != 3 {
			return fmt.Errorf("status of IwriteAtAll = %+v, want count 3", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFileSetSizeAndView(t *testing.T) {
	path := filepath.Join(t.TempDir(), "view.bin")
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		f, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeRdwr)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := f.SetSize(64); err != nil {
			return err
		}
		n, err := f.Size()
		if err != nil {
			return err
		}
		if n != 64 {
			return fmt.Errorf("size = %d, want 64", n)
		}
		// A view over OBJECT is rejected; the default view survives.
		if err := f.SetView(0, mpi.OBJECT, mpi.OBJECT); mpi.ClassOf(err) != mpi.ErrArg {
			return fmt.Errorf("object view: got %v, want MPI_ERR_ARG", err)
		}
		disp, et, ft := f.GetView()
		if disp != 0 || et != mpi.BYTE || ft != mpi.BYTE {
			return fmt.Errorf("view after rejected SetView = (%d,%s,%s)", disp, et.Name(), ft.Name())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRootDecisionReachesEveryMember: OpenFile and SetSize act on rank
// 0, and when rank 0 fails every member returns rank 0's class and
// message, cause included — not a class and text of its own.
func TestRootDecisionReachesEveryMember(t *testing.T) {
	const np = 3
	path := filepath.Join(t.TempDir(), "root.bin")
	var setErr, exclErr [np]error
	err := mpi.Run(np, func(env *mpi.Env) error {
		w := env.CommWorld()
		f, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeRdwr)
		if err != nil {
			return err
		}
		setErr[w.Rank()] = f.SetSize(-1)
		if err := f.Close(); err != nil {
			return err
		}
		_, exclErr[w.Rank()] = w.OpenFile(path, mpi.ModeCreate|mpi.ModeExcl|mpi.ModeWronly)
		// The communicator stays healthy after both failures.
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range setErr {
		if err == nil || mpi.ClassOf(err) != mpi.ClassOf(setErr[0]) || !strings.Contains(err.Error(), "invalid argument") {
			t.Errorf("rank %d: SetSize(-1) = %v, want rank 0's class %v and the cause", r, err, mpi.ClassOf(setErr[0]))
		}
	}
	for r, err := range exclErr {
		if err == nil || mpi.ClassOf(err) != mpi.ClassOf(exclErr[0]) || err.Error() != exclErr[0].Error() {
			t.Errorf("rank %d: exclusive create of an existing file = %v, want rank 0's %v", r, err, exclErr[0])
		}
	}
}

// TestFilePointerCollectives covers the collectives at the individual
// file pointer: WriteAll and ReadAll round-trip each rank's strided
// view, the nonblocking forms advance the pointer at the call, before
// Wait, and a call that fails local validation on every member still
// advances every member's pointer and leaves the next collective
// tag-aligned.
func TestFilePointerCollectives(t *testing.T) {
	const np, rows, cpr = 3, 4, 2 // rank r owns columns [r*cpr, (r+1)*cpr) of a rows × np*cpr matrix
	const per = rows * cpr
	path := filepath.Join(t.TempDir(), "pointer.bin")
	err := mpi.Run(np, func(env *mpi.Env) error {
		w := env.CommWorld()
		r := w.Rank()
		f, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeRdwr)
		if err != nil {
			return err
		}
		defer f.Close()
		ft, err := mpi.TypeVector(rows, cpr, np*cpr, mpi.INT)
		if err != nil {
			return err
		}
		ft.Commit()
		if err := f.SetView(r*cpr, mpi.INT, ft); err != nil {
			return err
		}
		mine := make([]int32, per)
		for i := range mine {
			mine[i] = int32(100*r + i)
		}
		tell := func(step string, want int64) error {
			if at := f.Tell(); at != want {
				return fmt.Errorf("rank %d: pointer after %s = %d, want %d", r, step, at, want)
			}
			return nil
		}

		// Blocking: two WriteAlls, then two ReadAlls from the start.
		for _, half := range [][]int32{mine[:per/2], mine[per/2:]} {
			if _, err := f.WriteAll(half, 0, len(half), mpi.INT); err != nil {
				return err
			}
		}
		if err := tell("two WriteAlls", per); err != nil {
			return err
		}
		if _, err := f.Seek(0, mpi.SeekSet); err != nil {
			return err
		}
		back := make([]int32, per)
		for h := range 2 {
			st, err := f.ReadAll(back, h*per/2, per/2, mpi.INT)
			if err != nil {
				return err
			}
			if got := st.GetCount(mpi.INT); got != per/2 {
				return fmt.Errorf("rank %d: ReadAll read %d elements, want %d", r, got, per/2)
			}
		}
		if !reflect.DeepEqual(back, mine) {
			return fmt.Errorf("rank %d: pointer round trip got %v, want %v", r, back, mine)
		}

		// Nonblocking: the pointer moves at the call.
		if _, err := f.Seek(0, mpi.SeekSet); err != nil {
			return err
		}
		rev := make([]int32, per)
		for i := range rev {
			rev[i] = -mine[i]
		}
		var reqs []*mpi.Request
		for h := range 2 {
			req, err := f.IwriteAll(rev, h*per/2, per/2, mpi.INT)
			if err != nil {
				return err
			}
			if err := tell(fmt.Sprintf("IwriteAll %d", h), int64((h+1)*per/2)); err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		if _, err := mpi.WaitAll(reqs); err != nil {
			return err
		}
		if _, err := f.Seek(0, mpi.SeekSet); err != nil {
			return err
		}
		clear(back)
		reqs = reqs[:0]
		for h := range 2 {
			req, err := f.IreadAll(back, h*per/2, per/2, mpi.INT)
			if err != nil {
				return err
			}
			if err := tell(fmt.Sprintf("IreadAll %d", h), int64((h+1)*per/2)); err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		sts, err := mpi.WaitAll(reqs)
		if err != nil {
			return err
		}
		for _, st := range sts {
			if got := st.GetCount(mpi.INT); got != per/2 {
				return fmt.Errorf("rank %d: IreadAll read %d elements, want %d", r, got, per/2)
			}
		}
		if !reflect.DeepEqual(back, rev) {
			return fmt.Errorf("rank %d: nonblocking pointer round trip got %v, want %v", r, back, rev)
		}

		// A DOUBLE buffer through the INT view fails local validation on
		// every member; each call still advances the pointer by its
		// size (two doubles are four ints), and the instances it skips
		// keep the next collective aligned.
		if _, err := f.Seek(0, mpi.SeekSet); err != nil {
			return err
		}
		if _, err := f.WriteAll([]float64{1, 2}, 0, 2, mpi.DOUBLE); mpi.ClassOf(err) != mpi.ErrType {
			return fmt.Errorf("rank %d: WriteAll of DOUBLE through an INT view = %v, want MPI_ERR_TYPE", r, err)
		}
		if err := tell("a failed WriteAll", 4); err != nil {
			return err
		}
		if _, err := f.IreadAll(make([]float64, 2), 0, 2, mpi.DOUBLE); mpi.ClassOf(err) != mpi.ErrType {
			return fmt.Errorf("rank %d: IreadAll of DOUBLE through an INT view = %v, want MPI_ERR_TYPE", r, err)
		}
		if err := tell("a failed IreadAll", 8); err != nil {
			return err
		}
		if _, err := f.Seek(per/2, mpi.SeekSet); err != nil {
			return err
		}
		tail := make([]int32, per/2)
		if _, err := f.ReadAll(tail, 0, per/2, mpi.INT); err != nil {
			return err
		}
		if !reflect.DeepEqual(tail, rev[per/2:]) {
			return fmt.Errorf("rank %d: ReadAll after failed calls got %v, want %v", r, tail, rev[per/2:])
		}
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}

	// The file holds the matrix row-major: rank r's columns of each row.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4*rows*np*cpr {
		t.Fatalf("file is %d bytes, want %d", len(raw), 4*rows*np*cpr)
	}
	for i := range rows * np * cpr {
		row, col := i/(np*cpr), i%(np*cpr)
		r, j := col/cpr, row*cpr+col%cpr
		if got, want := int32(binary.LittleEndian.Uint32(raw[4*i:])), -int32(100*r+j); got != want {
			t.Fatalf("file element %d (rank %d's element %d) = %d, want %d", i, r, j, got, want)
		}
	}
}
