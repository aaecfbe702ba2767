package mpi_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"gompi/internal/core"
	"gompi/mpi"
)

// TestNonblockingCollectivesOverlap: several nonblocking collectives in
// flight on one communicator at once, waited out of start order; the
// receive buffers must be filled only at completion and must not
// cross-contaminate.
func TestNonblockingCollectivesOverlap(t *testing.T) {
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()

		sum := []int64{0}
		all := make([]int32, size)
		bc := make([]float64, 2)
		if rank == 1 {
			bc[0], bc[1] = 2.5, -1.5
		}

		rSum, err := w.Iallreduce([]int64{int64(rank + 1)}, 0, sum, 0, 1, mpi.LONG, mpi.SUM)
		if err != nil {
			return err
		}
		rAll, err := w.Iallgather([]int32{int32(rank * 3)}, 0, 1, mpi.INT, all, 0, 1, mpi.INT)
		if err != nil {
			return err
		}
		rBc, err := w.Ibcast(bc, 0, 2, mpi.DOUBLE, 1)
		if err != nil {
			return err
		}
		rBar, err := w.Ibarrier()
		if err != nil {
			return err
		}

		// Wait in reverse start order.
		if _, err := rBar.Wait(); err != nil {
			return err
		}
		if _, err := rBc.Wait(); err != nil {
			return err
		}
		if _, err := rAll.Wait(); err != nil {
			return err
		}
		if _, err := rSum.Wait(); err != nil {
			return err
		}

		if want := int64(size * (size + 1) / 2); sum[0] != want {
			t.Errorf("rank %d: Iallreduce %d, want %d", rank, sum[0], want)
		}
		for r := range all {
			if all[r] != int32(r*3) {
				t.Errorf("rank %d: Iallgather slot %d = %d", rank, r, all[r])
			}
		}
		if bc[0] != 2.5 || bc[1] != -1.5 {
			t.Errorf("rank %d: Ibcast %v", rank, bc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNonblockingRootedCollectives: Igather/Iscatter/Ireduce complete
// with the same results as their blocking forms, with Test-polling on
// one of them.
func TestNonblockingRootedCollectives(t *testing.T) {
	err := mpi.Run(3, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()

		gat := make([]int32, size)
		rG, err := w.Igather([]int32{int32(rank + 10)}, 0, 1, mpi.INT, gat, 0, 1, mpi.INT, 2)
		if err != nil {
			return err
		}
		var sc []int64
		if rank == 0 {
			sc = []int64{100, 101, 102}
		}
		mine := []int64{-1}
		rS, err := w.Iscatter(sc, 0, 1, mpi.LONG, mine, 0, 1, mpi.LONG, 0)
		if err != nil {
			return err
		}
		red := []float64{0}
		rR, err := w.Ireduce([]float64{float64(rank)}, 0, red, 0, 1, mpi.DOUBLE, mpi.MAX, 1)
		if err != nil {
			return err
		}

		for {
			_, done, err := rG.Test()
			if err != nil {
				return err
			}
			if done {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		if _, err := rS.Wait(); err != nil {
			return err
		}
		if _, err := rR.Wait(); err != nil {
			return err
		}

		if rank == 2 {
			for r := range gat {
				if gat[r] != int32(r+10) {
					t.Errorf("Igather slot %d = %d", r, gat[r])
				}
			}
		}
		if mine[0] != int64(100+rank) {
			t.Errorf("rank %d: Iscatter %d", rank, mine[0])
		}
		if rank == 1 && red[0] != float64(size-1) {
			t.Errorf("Ireduce max %v", red[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// waitCtx completes a nonblocking collective under ctx — the one way a
// collective is cancelled — passing a refused call's error on:
// waitCtx(ctx)(w.Ibarrier()).
func waitCtx(ctx context.Context) func(*mpi.Request, error) error {
	return func(req *mpi.Request, err error) error {
		if err == nil {
			_, err = req.WaitCtx(ctx)
		}
		return err
	}
}

// foldsSince is collective over w: how many island folds its members
// ran since each read coll.island_folds as before. Each fold is counted
// by one member, the one that settled it.
func foldsSince(env *mpi.Env, w *mpi.Intracomm, before uint64) (uint64, error) {
	sum := []int64{0}
	err := w.Allreduce([]int64{int64(pv(env, "coll.island_folds") - before)}, 0, sum, 0, 1, mpi.LONG, mpi.SUM)
	return uint64(sum[0]), err
}

// instanceCancelled reports whether err is a call's failure on a
// collective instance that another member cancelled: ErrOther, carrying
// core.ErrInstanceCancelled's text.
func instanceCancelled(err error) bool {
	return mpi.ClassOf(err) == mpi.ErrOther && strings.Contains(err.Error(), core.ErrInstanceCancelled.Error())
}

// pv reads one of the rank's performance variables by name; an unknown
// name reads as 0.
func pv(env *mpi.Env, name string) uint64 {
	v, _ := env.PerfVar(name)
	return uint64(v)
}

// TestCollectiveCtxVariantsComplete: a nonblocking collective waited
// with WaitCtx under a background (never-cancelled) context is exactly
// the blocking collective.
func TestCollectiveCtxVariantsComplete(t *testing.T) {
	err := mpi.Run(3, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()
		wait := waitCtx(context.Background())

		if err := wait(w.Ibarrier()); err != nil {
			return err
		}
		buf := []int32{0}
		if rank == 0 {
			buf[0] = 42
		}
		if err := wait(w.Ibcast(buf, 0, 1, mpi.INT, 0)); err != nil {
			return err
		}
		if buf[0] != 42 {
			t.Errorf("rank %d: Ibcast %d", rank, buf[0])
		}
		out := []int32{0}
		if err := wait(w.Iallreduce([]int32{int32(rank + 1)}, 0, out, 0, 1, mpi.INT, mpi.SUM)); err != nil {
			return err
		}
		if want := int32(size * (size + 1) / 2); out[0] != want {
			t.Errorf("rank %d: Iallreduce %d, want %d", rank, out[0], want)
		}
		scan := []int32{0}
		if err := wait(w.Iscan([]int32{int32(rank + 1)}, 0, scan, 0, 1, mpi.INT, mpi.SUM)); err != nil {
			return err
		}
		if want := int32((rank + 1) * (rank + 2) / 2); scan[0] != want {
			t.Errorf("rank %d: Iscan %d, want %d", rank, scan[0], want)
		}
		ex := []int32{-7}
		if err := wait(w.Iexscan([]int32{int32(rank + 1)}, 0, ex, 0, 1, mpi.INT, mpi.SUM)); err != nil {
			return err
		}
		if rank == 0 {
			if ex[0] != -7 {
				t.Errorf("rank 0: Iexscan touched the buffer: %d", ex[0])
			}
		} else if want := int32(rank * (rank + 1) / 2); ex[0] != want {
			t.Errorf("rank %d: Iexscan %d, want %d", rank, ex[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveWaitCtxCancelAndRecover: a collective stalled on a late
// root returns ctx.Err() promptly; the cancelled member's buffer stays
// untouched, the late root's call of the cancelled instance fails with
// ErrOther, and the same communicator keeps working for both members
// afterwards.
func TestCollectiveWaitCtxCancelAndRecover(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 1 {
			buf := []int32{-1}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := waitCtx(ctx)(w.Ibcast(buf, 0, 1, mpi.INT, 0))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("Ibcast on absent root: %v, want deadline exceeded", err)
			}
			if waited := time.Since(start); waited > 5*time.Second {
				t.Errorf("Ibcast's WaitCtx took %v, not prompt", waited)
			}
			if buf[0] != -1 {
				t.Errorf("cancelled Ibcast touched the buffer: %d", buf[0])
			}
		} else {
			// The root shows up late, after rank 1 cancelled the
			// instance, and its call fails.
			time.Sleep(150 * time.Millisecond)
			if err := w.Bcast([]int32{9}, 0, 1, mpi.INT, 0); !instanceCancelled(err) {
				t.Errorf("late root's Bcast of the cancelled instance: %v, want ErrOther", err)
			}
		}
		// Same communicator, next collectives: both members participate.
		out := []int32{0}
		if err := w.Allreduce([]int32{int32(w.Rank() + 1)}, 0, out, 0, 1, mpi.INT, mpi.SUM); err != nil {
			return err
		}
		if out[0] != 3 {
			t.Errorf("rank %d: allreduce after cancellation %d, want 3", w.Rank(), out[0])
		}
		buf := []int32{0}
		if w.Rank() == 0 {
			buf[0] = 77
		}
		if err := w.Bcast(buf, 0, 1, mpi.INT, 0); err != nil {
			return err
		}
		if buf[0] != 77 {
			t.Errorf("rank %d: bcast after cancellation %d", w.Rank(), buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitCtxCollectiveAbsentPeerPooled: a cancellable collective is
// IX + WaitCtx, so its schedule is parked on the shared progress pool,
// and it is that park a fired context must end. With the peer absent,
// Ibarrier and Iallreduce return ctx's error promptly from WaitCtx: the
// instance's revocation fails the receive or hold they were parked on
// (nothing is cancelled one operation at a time, so core.cancelled stays
// put). The late peer's Barrier then fails with ErrOther, while its
// Allreduce, which the island takes, completes with the copy the
// cancelled member left; and the communicator still lines up afterwards.
func TestWaitCtxCollectiveAbsentPeerPooled(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		in, out := []float64{float64(w.Rank() + 1)}, []float64{0}
		if w.Rank() == 1 {
			abandoned := pv(env, "core.cancelled")
			calls := map[string]func(context.Context) error{
				"Ibarrier": func(ctx context.Context) error { return waitCtx(ctx)(w.Ibarrier()) },
				"Iallreduce": func(ctx context.Context) error {
					return waitCtx(ctx)(w.Iallreduce(in, 0, out, 0, 1, mpi.DOUBLE, mpi.SUM))
				},
			}
			for _, name := range []string{"Ibarrier", "Iallreduce"} {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				start := time.Now()
				err := calls[name](ctx)
				cancel()
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("%s with an absent peer: %v, want deadline exceeded", name, err)
				}
				if waited := time.Since(start); waited > 5*time.Second {
					t.Errorf("%s took %v, not prompt", name, waited)
				}
				if now := pv(env, "core.cancelled"); now != abandoned {
					t.Errorf("%s: %d operations cancelled, want %d: the instance's revocation fails them", name, now, abandoned)
				}
			}
		} else {
			time.Sleep(200 * time.Millisecond)
			if err := w.Barrier(); !instanceCancelled(err) {
				t.Errorf("late Barrier of the cancelled instance: %v, want ErrOther", err)
			}
			if err := w.Allreduce(in, 0, out, 0, 1, mpi.DOUBLE, mpi.SUM); err != nil || out[0] != 3 {
				t.Errorf("late Allreduce on the island: %v, %v, want 3", err, out[0])
			}
		}
		if err := w.Allreduce(in, 0, out, 0, 1, mpi.DOUBLE, mpi.SUM); err != nil {
			return err
		}
		if out[0] != 3 {
			t.Errorf("rank %d: allreduce after the cancelled calls = %v, want 3", w.Rank(), out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBlockingCollectivesSpawnNoGoroutines: a blocking collective is
// driven by the rank that called it — 1000 back-to-back barriers on 4
// ranks leave the process with no more goroutines than it had.
func TestBlockingCollectivesSpawnNoGoroutines(t *testing.T) {
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		if err := w.Barrier(); err != nil { // every rank is up and warm
			return err
		}
		before := runtime.NumGoroutine()
		for i := 0; i < 1000; i++ {
			if err := w.Barrier(); err != nil {
				return err
			}
		}
		// No rank has left yet: each still owes the barrier below.
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("rank %d: %d goroutines after 1000 barriers, %d before", w.Rank(), after, before)
		}
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitAfterCancelledWaitCtx: reaping a request that a WaitCtx
// already cancelled reports ErrCollectiveCancelled — control flow, not
// an MPI error — and never panics under ErrorsAreFatal. The late root's
// call of the cancelled instance fails with ErrOther.
func TestWaitAfterCancelledWaitCtx(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 1 {
			w.SetErrhandler(mpi.ErrorsAreFatal) // a raise here would panic
			defer w.SetErrhandler(mpi.ErrorsReturn)
			buf := []int32{-1}
			req, err := w.Ibcast(buf, 0, 1, mpi.INT, 0)
			if err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			if _, err := req.WaitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("WaitCtx: %v", err)
			}
			if _, err := req.Wait(); !errors.Is(err, mpi.ErrCollectiveCancelled) {
				t.Errorf("Wait after cancelled WaitCtx: %v, want ErrCollectiveCancelled", err)
			}
			_, done, err := req.Test()
			if !done || !errors.Is(err, mpi.ErrCollectiveCancelled) {
				t.Errorf("Test after cancelled WaitCtx: done=%v err=%v", done, err)
			}
		} else {
			time.Sleep(120 * time.Millisecond)
			if err := w.Bcast([]int32{1}, 0, 1, mpi.INT, 0); !instanceCancelled(err) {
				t.Errorf("late root's Bcast of the cancelled instance: %v, want ErrOther", err)
			}
		}
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNonblockingVVariants: Igatherv/Iscatterv/Iallgatherv/Ialltoallv
// round-trip varying per-rank sizes.
func TestNonblockingVVariants(t *testing.T) {
	err := mpi.Run(3, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()
		counts := make([]int, size)
		displs := make([]int, size)
		total := 0
		for r := 0; r < size; r++ {
			counts[r] = r + 1
			displs[r] = total
			total += r + 1
		}

		send := make([]int32, rank+1)
		for i := range send {
			send[i] = int32(rank*10 + i)
		}
		gat := make([]int32, total)
		rG, err := w.Igatherv(send, 0, rank+1, mpi.INT, gat, 0, counts, displs, mpi.INT, 0)
		if err != nil {
			return err
		}
		all := make([]int32, total)
		rA, err := w.Iallgatherv(send, 0, rank+1, mpi.INT, all, 0, counts, displs, mpi.INT)
		if err != nil {
			return err
		}
		if _, err := rG.Wait(); err != nil {
			return err
		}
		if _, err := rA.Wait(); err != nil {
			return err
		}
		check := func(name string, got []int32) {
			for r := 0; r < size; r++ {
				for i := 0; i < counts[r]; i++ {
					if got[displs[r]+i] != int32(r*10+i) {
						t.Errorf("rank %d: %s slot (%d,%d) = %d", rank, name, r, i, got[displs[r]+i])
					}
				}
			}
		}
		if rank == 0 {
			check("Igatherv", gat)
		}
		check("Iallgatherv", all)

		// Iscatterv: rank 0 deals the triangle back out.
		var pool []int32
		if rank == 0 {
			pool = all
		}
		back := make([]int32, rank+1)
		rS, err := w.Iscatterv(pool, 0, counts, displs, mpi.INT, back, 0, rank+1, mpi.INT, 0)
		if err != nil {
			return err
		}
		if _, err := rS.Wait(); err != nil {
			return err
		}
		for i := range back {
			if back[i] != int32(rank*10+i) {
				t.Errorf("rank %d: Iscatterv slot %d = %d", rank, i, back[i])
			}
		}

		// Ialltoallv: member r sends j+1 elements to member j.
		scounts := make([]int, size)
		sdispls := make([]int, size)
		stotal := 0
		for j := 0; j < size; j++ {
			scounts[j] = j + 1
			sdispls[j] = stotal
			stotal += j + 1
		}
		sbuf := make([]int32, stotal)
		for j := 0; j < size; j++ {
			for i := 0; i < scounts[j]; i++ {
				sbuf[sdispls[j]+i] = int32(rank*100 + j)
			}
		}
		rcounts := make([]int, size)
		rdispls := make([]int, size)
		rtotal := 0
		for j := 0; j < size; j++ {
			rcounts[j] = rank + 1
			rdispls[j] = rtotal
			rtotal += rank + 1
		}
		rbuf := make([]int32, rtotal)
		rT, err := w.Ialltoallv(sbuf, 0, scounts, sdispls, mpi.INT, rbuf, 0, rcounts, rdispls, mpi.INT)
		if err != nil {
			return err
		}
		if _, err := rT.Wait(); err != nil {
			return err
		}
		for j := 0; j < size; j++ {
			for i := 0; i < rank+1; i++ {
				if rbuf[rdispls[j]+i] != int32(j*100+rank) {
					t.Errorf("rank %d: Ialltoallv slot (%d,%d) = %d", rank, j, i, rbuf[rdispls[j]+i])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVVariantNilCountsRaiseErrArg: v-variants called with nil counts
// and displacements must raise ErrArg where the layout is significant —
// never panic in the deposit, never silently no-op. The probes run on
// COMM_SELF: a failed collective call consumes an instance number like
// any other (see TestSeqAlignedAfterAsymmetricError), so erroneous
// calls made on one world rank only would themselves violate the
// same-order rule the sequence relies on.
func TestVVariantNilCountsRaiseErrArg(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		c := env.CommSelf()
		buf := []int32{1}
		recv := []int32{-1}
		if err := c.Gatherv(buf, 0, 1, mpi.INT, recv, 0, nil, nil, mpi.INT, 0); mpi.ClassOf(err) != mpi.ErrArg {
			t.Errorf("Gatherv nil counts: %v", err)
		}
		if err := c.Scatterv(buf, 0, nil, nil, mpi.INT, recv, 0, 1, mpi.INT, 0); mpi.ClassOf(err) != mpi.ErrArg {
			t.Errorf("Scatterv nil counts: %v", err)
		}
		if recv[0] != -1 {
			t.Errorf("Scatterv nil counts touched recv: %d", recv[0])
		}
		if _, err := c.Igatherv(buf, 0, 1, mpi.INT, recv, 0, nil, nil, mpi.INT, 0); mpi.ClassOf(err) != mpi.ErrArg {
			t.Errorf("Igatherv nil counts: %v", err)
		}
		if err := c.Allgatherv(buf, 0, 1, mpi.INT, recv, 0, nil, nil, mpi.INT); mpi.ClassOf(err) != mpi.ErrArg {
			t.Errorf("Allgatherv nil counts: %v", err)
		}
		if err := c.Alltoallv(buf, 0, nil, nil, mpi.INT, recv, 0, nil, nil, mpi.INT); mpi.ClassOf(err) != mpi.ErrArg {
			t.Errorf("Alltoallv nil counts: %v", err)
		}
		return env.CommWorld().Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSeqAlignedAfterAsymmetricError: a rank-asymmetric argument error
// (root-side ErrArg while the other member's matching call proceeds)
// must not desynchronize the per-instance tag sequence — later
// collectives on the same communicator still line up and complete.
func TestSeqAlignedAfterAsymmetricError(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		send := []int32{int32(w.Rank() + 40)}
		if w.Rank() == 0 {
			// Root aborts at validation: nil recvcounts/displs.
			recv := make([]int32, 2)
			if err := w.Gatherv(send, 0, 1, mpi.INT, recv, 0, nil, nil, mpi.INT, 0); mpi.ClassOf(err) != mpi.ErrArg {
				t.Errorf("Gatherv nil counts at root: %v", err)
			}
		} else {
			// The non-root's matching call needs no counts and completes
			// (its contribution is sent eagerly).
			if err := w.Gatherv(send, 0, 1, mpi.INT, nil, 0, nil, nil, mpi.INT, 0); err != nil {
				return err
			}
		}
		// The next collectives must still match across ranks; guard with
		// a context so a regression fails fast instead of hanging.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		wait := waitCtx(ctx)
		if err := wait(w.Ibarrier()); err != nil {
			t.Errorf("barrier after asymmetric error: %v", err)
			return nil
		}
		out := []int32{0}
		if err := wait(w.Iallreduce([]int32{int32(w.Rank() + 1)}, 0, out, 0, 1, mpi.INT, mpi.SUM)); err != nil {
			t.Errorf("allreduce after asymmetric error: %v", err)
			return nil
		}
		if out[0] != 3 {
			t.Errorf("allreduce value after asymmetric error: %d", out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIreduceScatterAndIexscan: the remaining nonblocking forms.
func TestIreduceScatterAndIexscan(t *testing.T) {
	err := mpi.Run(3, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()
		counts := []int{1, 2, 1}
		recv := make([]int64, counts[rank])
		rRS, err := w.IreduceScatter([]int64{1, 2, 3, 4}, 0, recv, 0, counts, mpi.LONG, mpi.SUM)
		if err != nil {
			return err
		}
		ex := []int64{-1}
		rEx, err := w.Iexscan([]int64{int64(rank + 1)}, 0, ex, 0, 1, mpi.LONG, mpi.SUM)
		if err != nil {
			return err
		}
		if _, err := rRS.Wait(); err != nil {
			return err
		}
		if _, err := rEx.Wait(); err != nil {
			return err
		}
		base := 0
		for r := 0; r < rank; r++ {
			base += counts[r]
		}
		for i := range recv {
			if want := int64((base + i + 1) * 3); recv[i] != want {
				t.Errorf("rank %d: IreduceScatter slot %d = %d, want %d", rank, i, recv[i], want)
			}
		}
		if rank == 0 {
			if ex[0] != -1 {
				t.Errorf("rank 0: Iexscan touched the buffer: %d", ex[0])
			}
		} else if want := int64(rank * (rank + 1) / 2); ex[0] != want {
			t.Errorf("rank %d: Iexscan %d, want %d", rank, ex[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
