package mpi

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gompi/internal/coll"
)

// The plan cache: a one-shot collective reuses its communicator's plan
// for the call's shape, re-bound to the call's buffers. These tests run
// over chan (frames by reference) and loopback tcp, and read the
// communicator's one cache, which the runtime's own agreements share,
// through coll.Comm.CachedPlans.

func eachDevice(t *testing.T, np int, body func(env *Env) error) {
	for _, device := range []string{"chan", "tcp"} {
		t.Run(device, func(t *testing.T) {
			if err := RunWith(RunOptions{NP: np, Device: device}, body); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// expectEntries fails when the communicator's cache holds other than n
// plans.
func expectEntries(c *Intracomm, n int, when string) error {
	if got := c.cl.CachedPlans(); got != n {
		return fmt.Errorf("rank %d, %s: %d cached plans, want %d", c.Rank(), when, got, n)
	}
	return nil
}

// TestPlanCacheRebindsBuffers: calls of one shape share one plan, and
// every call reads and fills its own buffers at its own offsets — the
// cached plan keeps nothing of the call before.
func TestPlanCacheRebindsBuffers(t *testing.T) {
	eachDevice(t, 3, func(env *Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()
		for call := 0; call < 12; call++ {
			off := call % 3
			send := make([]float64, off+4)
			recv := make([]float64, off+4)
			for i := range send {
				send[i] = float64(100*call + rank)
			}
			if err := w.Allreduce(send, off, recv, off, 4, DOUBLE, SUM); err != nil {
				return err
			}
			if want := float64(size*100*call + size*(size-1)/2); recv[off] != want || recv[off+3] != want || off > 0 && recv[0] != 0 {
				return fmt.Errorf("rank %d call %d: allreduce %v, want %v at offset %d", rank, call, recv, want, off)
			}

			buf := make([]int32, off+2)
			if rank == call%size {
				buf[off], buf[off+1] = int32(call), int32(-call)
			}
			if err := w.Bcast(buf, off, 2, INT, call%size); err != nil {
				return err
			}
			if buf[off] != int32(call) || buf[off+1] != int32(-call) {
				return fmt.Errorf("rank %d call %d: bcast %v", rank, call, buf)
			}

			mine := []int64{int64(call*10 + rank)}
			all := make([]int64, off+size)
			if err := w.Allgather(mine, 0, 1, LONG, all, off, 1, LONG); err != nil {
				return err
			}
			for r := 0; r < size; r++ {
				if all[off+r] != int64(call*10+r) {
					return fmt.Errorf("rank %d call %d: allgather %v", rank, call, all)
				}
			}
		}
		// One plan per shape: the allreduce, and a bcast per root.
		return expectEntries(w, 2+size, "after 12 calls of 2+size shapes")
	})
}

// TestPlanCacheAlternatingShapes: shapes interleave, more of them than
// the cache holds, so plans are re-armed, pushed out and rebuilt in
// turn, and every call still computes its own answer.
func TestPlanCacheAlternatingShapes(t *testing.T) {
	eachDevice(t, 4, func(env *Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()
		shapes := coll.CacheSize + 3
		for call := 0; call < 4*shapes; call++ {
			n := 1 + (call*5)%shapes // a stride coprime with the count: no two neighbours alike
			send, recv := make([]int32, n), make([]int32, n)
			for i := range send {
				send[i] = int32(rank*n + i + call)
			}
			var err error
			if call%2 == 0 {
				err = w.Allreduce(send, 0, recv, 0, n, INT, MAX)
			} else {
				err = w.Scan(send, 0, recv, 0, n, INT, SUM)
			}
			if err != nil {
				return err
			}
			for i := range recv {
				want := int32((size-1)*n + i + call)
				if call%2 == 1 {
					want = int32((rank*(rank+1)/2)*n + (rank+1)*(i+call))
				}
				if recv[i] != want {
					return fmt.Errorf("rank %d call %d (n=%d): element %d = %d, want %d", rank, call, n, i, recv[i], want)
				}
			}
			if got := w.cl.CachedPlans(); got > coll.CacheSize {
				return fmt.Errorf("rank %d: %d cached plans, more than %d", rank, got, coll.CacheSize)
			}
		}
		return nil
	})
}

// TestPlanCacheVFormCounts: a v-form's counts and displacements are
// part of its shape. The caller rewrites one counts and one displs slice
// in place between calls — counts (which also moves this rank's send
// count) and, with counts unchanged, displs alone, leaving gaps in the
// receive buffer. The cache kept copies, so a changed layout builds its
// own plan and a repeated one reuses its own.
func TestPlanCacheVFormCounts(t *testing.T) {
	eachDevice(t, 3, func(env *Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()
		counts, displs := make([]int, size), make([]int, size)
		for call, lay := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {0, 0}, {0, 1}, {1, 0}} {
			shift, gap := lay[0], lay[1]
			total := 0
			for r := range counts {
				counts[r], displs[r] = 1+(r+shift)%size, total
				total += counts[r] + gap
			}
			send := make([]int32, counts[rank])
			for i := range send {
				send[i] = int32(100*rank + i + call)
			}
			recv := make([]int32, total)
			if err := w.Allgatherv(send, 0, len(send), INT, recv, 0, counts, displs, INT); err != nil {
				return err
			}
			for r := range counts {
				for i := 0; i < counts[r]; i++ {
					if got := recv[displs[r]+i]; got != int32(100*r+i+call) {
						return fmt.Errorf("rank %d call %d: block %d element %d = %d", rank, call, r, i, got)
					}
				}
			}
		}
		return expectEntries(w, 3, "after calls of three distinct layouts")
	})
}

// TestPlanCacheSendIsRecv: the same slice as send and receive buffer,
// below the eager limit (the contribution is packed) and above it (the
// schedule reads it where it lies), call after call on one plan each.
func TestPlanCacheSendIsRecv(t *testing.T) {
	eachDevice(t, 4, func(env *Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()
		for _, n := range []int{3, 1 << 14} { // 24 B, and 128 KiB
			buf := make([]float64, n)
			for call := 0; call < 5; call++ {
				for i := range buf {
					buf[i] = float64(rank + call)
				}
				if err := w.Allreduce(buf, 0, buf, 0, n, DOUBLE, SUM); err != nil {
					return err
				}
				if want := float64(size*(size-1)/2 + size*call); buf[0] != want || buf[n-1] != want {
					return fmt.Errorf("rank %d, %d doubles, call %d: %v … %v, want %v", rank, n, call, buf[0], buf[n-1], want)
				}
			}
		}
		return expectEntries(w, 2, "after two sizes")
	})
}

// TestPlanCacheConcurrentSameShape: a plan is never shared by two calls
// in flight — the second Iallreduce of a shape, started while the first
// is pending, builds its own plan; both complete into their own buffers,
// and both plans are cached once they have. The first is waited for on
// another goroutine while this one re-arms the second's plan for a
// blocking call, so the cache is handed plans back and out at once.
func TestPlanCacheConcurrentSameShape(t *testing.T) {
	eachDevice(t, 4, func(env *Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()
		sum := int64(size * (size - 1) / 2)
		a, b, c := make([]int64, 2), make([]int64, 2), make([]int64, 2)
		ra, err := w.Iallreduce([]int64{int64(rank), 1}, 0, a, 0, 2, LONG, SUM)
		if err != nil {
			return err
		}
		rb, err := w.Iallreduce([]int64{int64(10 * rank), 2}, 0, b, 0, 2, LONG, SUM)
		if err != nil {
			return err
		}
		if err := expectEntries(w, 2, "with two in flight"); err != nil {
			return err
		}
		waited := make(chan error, 1)
		go func() {
			_, err := ra.Wait()
			waited <- err
		}()
		if _, err := rb.Wait(); err != nil {
			return err
		}
		if err := w.Allreduce([]int64{1, 1}, 0, c, 0, 2, LONG, SUM); err != nil {
			return err
		}
		if err := <-waited; err != nil {
			return err
		}
		if a[0] != sum || a[1] != int64(size) || b[0] != 10*sum || b[1] != int64(2*size) || c[0] != int64(size) {
			return fmt.Errorf("rank %d: %v, %v and %v", rank, a, b, c)
		}
		return expectEntries(w, 2, "after a third call of the shape")
	})
}

// TestPlanCacheFreedRequest: a freed nonblocking collective's plan
// leaves the cache — its schedule is still running — and the next call
// of the shape builds a plan of its own.
func TestPlanCacheFreedRequest(t *testing.T) {
	eachDevice(t, 3, func(env *Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()
		req, err := w.Iallreduce([]int32{int32(rank)}, 0, make([]int32, 1), 0, 1, INT, SUM)
		if err != nil {
			return err
		}
		if err := req.Free(); err != nil {
			return err
		}
		if err := expectEntries(w, 0, "after Free"); err != nil {
			return err
		}
		for call := 0; call < 3; call++ {
			out := make([]int32, 1)
			if err := w.Allreduce([]int32{int32(rank + call)}, 0, out, 0, 1, INT, SUM); err != nil {
				return err
			}
			if want := int32(size*(size-1)/2 + size*call); out[0] != want {
				return fmt.Errorf("rank %d call %d: %d, want %d", rank, call, out[0], want)
			}
		}
		return expectEntries(w, 1, "after three calls of the shape")
	})
}

// TestPersistentInitTakesCachedPlan: an *Init call runs through the
// cache like a one-shot call and then takes its plan out of it. Rank 0
// frees an in-flight Iallreduce, which evicts its plan, while rank 1
// waits for its own, which stays cached; at the AllreduceInit of that
// shape rank 0 misses and builds, rank 1 hits and re-arms, and both
// leave the cache empty. Both must still mint one instance, so three
// activations with new inputs each, and a one-shot Allreduce of the
// shape after each (the first builds a plan of its own), all agree.
func TestPersistentInitTakesCachedPlan(t *testing.T) {
	eachDevice(t, 2, func(env *Env) error {
		w := env.CommWorld()
		rank := w.Rank()
		req, err := w.Iallreduce([]float64{1}, 0, make([]float64, 1), 0, 1, DOUBLE, SUM)
		if err != nil {
			return err
		}
		if rank == 0 {
			err = req.Free()
		} else {
			_, err = req.Wait()
		}
		if err != nil {
			return err
		}
		if err := expectEntries(w, rank, "before the Init"); err != nil {
			return err
		}
		pin, pout := []float64{0}, []float64{0}
		p, err := w.AllreduceInit(pin, 0, pout, 0, 1, DOUBLE, SUM)
		if err != nil {
			return err
		}
		defer p.Free()
		if err := expectEntries(w, 0, "after the Init"); err != nil {
			return err
		}
		for k := 1; k <= 3; k++ {
			pin[0] = float64(10*k + rank)
			if err := p.Start(); err != nil {
				return err
			}
			if _, err := p.Wait(); err != nil {
				return err
			}
			out := []float64{0}
			if err := w.Allreduce([]float64{float64(k * (rank + 1))}, 0, out, 0, 1, DOUBLE, SUM); err != nil {
				return err
			}
			if pout[0] != float64(20*k+1) || out[0] != float64(3*k) {
				return fmt.Errorf("rank %d activation %d: persistent %v (want %d), one-shot %v (want %d)", rank, k, pout[0], 20*k+1, out[0], 3*k)
			}
			if err := expectEntries(w, 1, "after a one-shot call"); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestPlanCacheCancelledActivation: a WaitCtx-cancelled collective's
// plan leaves the cache; once the late member has made its matching
// call, which fails with ErrOther, a clean call of the same shape builds
// afresh and completes on every member.
func TestPlanCacheCancelledActivation(t *testing.T) {
	eachDevice(t, 2, func(env *Env) error {
		w := env.CommWorld()
		if w.Rank() == 1 {
			buf := []int32{-1}
			req, err := w.Ibcast(buf, 0, 1, INT, 0)
			if err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			if _, err := req.WaitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("WaitCtx on an absent root: %v", err)
			}
			if err := expectEntries(w, 0, "after the cancelled activation"); err != nil {
				return err
			}
		} else {
			time.Sleep(100 * time.Millisecond)
			if err := w.Bcast([]int32{9}, 0, 1, INT, 0); ClassOf(err) != ErrOther {
				return fmt.Errorf("late root's Bcast of the cancelled instance: %v, want %v", err, ErrOther)
			}
		}
		for call := 0; call < 2; call++ {
			buf := []int32{0}
			if w.Rank() == 0 {
				buf[0] = int32(77 + call)
			}
			if err := w.Bcast(buf, 0, 1, INT, 0); err != nil {
				return err
			}
			if buf[0] != int32(77+call) {
				return fmt.Errorf("rank %d: bcast %d after the cancellation", w.Rank(), buf[0])
			}
		}
		return expectEntries(w, 1, "after two clean calls")
	})
}

// TestPlanCacheFreedCommHoldsNothing: a user Allreduce of one INT under
// MAX, then Dup, one allreduce, Free, 10 000 times — a freed
// communicator's cache is empty, and the parent's holds two plans for
// good: the user's, and the Dup's context-id agreement, an Allreduce of
// one int32 under MAX too, whose key names its datatype by a dtype.Class
// where the binding's names an *mpi.Datatype. Both results are right
// every time: the user's maximum, and a context pair no other
// communicator of the job uses.
func TestPlanCacheFreedCommHoldsNothing(t *testing.T) {
	err := Run(2, func(env *Env) error {
		w := env.CommWorld()
		in, out := []int32{int32(w.Rank())}, make([]int32, 1)
		last := w.ptpCtx
		for i := 0; i < 10000; i++ {
			top := []int32{int32(w.Rank() + i)}
			if err := w.Allreduce(top, 0, out, 0, 1, INT, MAX); err != nil {
				return err
			}
			if out[0] != int32(1+i) {
				return fmt.Errorf("rank %d, call %d: max %d, want %d", w.Rank(), i, out[0], 1+i)
			}
			dup, err := w.Dup()
			if err != nil {
				return err
			}
			if dup.ptpCtx <= last {
				return fmt.Errorf("rank %d, dup %d: context %d after %d", w.Rank(), i, dup.ptpCtx, last)
			}
			last = dup.ptpCtx
			if err := dup.Allreduce(in, 0, out, 0, 1, INT, SUM); err != nil {
				return err
			}
			if err := expectEntries(dup, 1, "before Free"); err != nil {
				return err
			}
			if err := dup.Free(); err != nil {
				return err
			}
			if err := expectEntries(dup, 0, "after Free"); err != nil {
				return err
			}
			if err := expectEntries(w, 2, "on the parent"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanCachePinsNoUserMemory: a plan back in the cache has dropped
// the call's buffers — its bound sections, its accumulator (here the
// receive section itself) and the schedule's published result — so the
// collector takes a buffer whose last call is done. At 16 384 doubles
// (128 KiB) the halving schedule lends windows of the send buffer by
// reference, and the partner's engine queues each as an unexpected
// message until its receive comes: a queue that kept a taken message in
// its backing array kept the sender's buffer with it.
func TestPlanCachePinsNoUserMemory(t *testing.T) {
	err := Run(2, func(env *Env) error {
		w := env.CommWorld()
		for _, n := range []int{4, 1 << 10, 1 << 14} {
			freed := make(chan string, 2)
			func() {
				send, recv := make([]float64, n), make([]float64, n)
				runtime.SetFinalizer(&send[0], func(*float64) { freed <- "send" })
				runtime.SetFinalizer(&recv[0], func(*float64) { freed <- "recv" })
				for call := 0; call < 2; call++ {
					if err := w.Allreduce(send, 0, recv, 0, n, DOUBLE, SUM); err != nil {
						t.Error(err)
					}
				}
			}()
			if w.cl.CachedPlans() == 0 {
				return fmt.Errorf("rank %d: no cached plan", w.Rank())
			}
			for got, deadline := 0, time.Now().Add(5*time.Second); got < 2; {
				runtime.GC()
				select {
				case <-freed:
					got++
				case <-time.After(10 * time.Millisecond):
					if time.Now().After(deadline) {
						return fmt.Errorf("rank %d, %d doubles: %d of 2 buffers collected after their calls", w.Rank(), n, got)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
