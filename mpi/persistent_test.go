package mpi_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gompi/mpi"
)

// TestPersistentPingPong: a persistent send/recv pair cycled many
// times. Each activation must re-read the send buffer as of Start and
// deposit into the fixed receive buffer, round after round — the
// MPI_Send_init/MPI_Recv_init contract.
func TestPersistentPingPong(t *testing.T) {
	const rounds = 100
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()
		peer := 1 - rank

		out := make([]int64, 4)
		in := make([]int64, 4)
		send, err := w.SendInit(out, 0, len(out), mpi.LONG, peer, 7)
		if err != nil {
			return err
		}
		defer send.Free()
		recv, err := w.RecvIntoInit(in, 0, len(in), mpi.LONG, peer, 7)
		if err != nil {
			return err
		}
		defer recv.Free()

		for r := 0; r < rounds; r++ {
			for i := range out {
				out[i] = int64(rank*1000_000 + r*100 + i)
			}
			if err := mpi.StartAll([]*mpi.PersistentRequest{recv, send}); err != nil {
				return err
			}
			if _, err := send.Wait(); err != nil {
				return err
			}
			st, err := recv.Wait()
			if err != nil {
				return err
			}
			if got := st.GetCount(mpi.LONG); got != len(in) {
				t.Errorf("rank %d round %d: count %d, want %d", rank, r, got, len(in))
			}
			for i, v := range in {
				if want := int64(peer*1000_000 + r*100 + i); v != want {
					t.Errorf("rank %d round %d: in[%d] = %d, want %d", rank, r, i, v, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPersistentStartBeforeCompleteRejected: starting an activation
// while the previous one is still in flight is a local error and must
// not corrupt the operation. Start runs an activation's first steps at
// once, so one whose partner's message is already there may complete
// inside Start: rank 0 makes its second Start before rank 1 has started,
// when its own activation cannot have completed.
func TestPersistentStartBeforeCompleteRejected(t *testing.T) {
	started := make(chan struct{})
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()

		buf := []int32{int32(rank)}
		res := []int32{0}
		red, err := w.AllreduceInit(buf, 0, res, 0, 1, mpi.INT, mpi.SUM)
		if err != nil {
			return err
		}
		defer red.Free()

		if rank == 1 {
			<-started
		}
		if err := red.Start(); err != nil {
			return err
		}
		if rank == 0 {
			if err := red.Start(); mpi.ClassOf(err) != mpi.ErrRequest {
				t.Errorf("second Start while active: %v, want ErrRequest", err)
			}
			close(started)
		}
		if _, err := red.Wait(); err != nil {
			return err
		}
		if res[0] != 1 {
			t.Errorf("rank %d: sum %d, want 1", rank, res[0])
		}
		// The rejected Start must not have consumed the activation: the
		// request is startable again and produces the right answer.
		buf[0] = int32(rank + 10)
		if err := red.Start(); err != nil {
			return err
		}
		if _, err := red.Wait(); err != nil {
			return err
		}
		if res[0] != 21 {
			t.Errorf("rank %d: second sum %d, want 21", rank, res[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// poisonProbe is the OBJECT element of
// TestPersistentPoisonedByFailedActivation.
type poisonProbe struct{ N int64 }

// TestPersistentPoisonedByFailedActivation: a persistent collective
// whose schedule failed — here an activation cancelled by WaitCtx while
// the peer had not started — never starts again: every later Start
// reports the failure, a cancellation as ErrOther, the class the peers'
// activations of the cancelled instance fail with. Only the schedule's
// own failure poisons: an activation whose deposit failed (an OBJECT
// element of the wrong type) starts again normally, as does a
// persistent receive after a truncated activation. And a Start made
// after the running activation's handle was freed is refused with
// ErrRequest until that activation has completed in the background.
func TestPersistentPoisonedByFailedActivation(t *testing.T) {
	freed := make(chan struct{})
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()

		in, out := []int64{int64(rank + 1)}, []int64{0}
		red, err := w.AllreduceInit(in, 0, out, 0, 1, mpi.LONG, mpi.SUM)
		if err != nil {
			return err
		}
		if rank == 0 {
			if err := red.Start(); err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			_, err := red.WaitCtx(ctx)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("WaitCtx with the peer absent: %v, want DeadlineExceeded", err)
			}
			for i := 1; i <= 2; i++ {
				if err := red.Start(); !instanceCancelled(err) {
					t.Errorf("Start %d after a cancelled activation: %v, want ErrOther", i, err)
				}
			}
		}
		red.Free()
		if err := w.Barrier(); err != nil {
			return err
		}

		// A deposit that fails leaves the schedule sound.
		mpi.RegisterObject(poisonProbe{})
		stage, got := make([]any, 2), make([]poisonProbe, 2)
		var buf any = got
		if rank == 0 {
			buf = stage
		}
		bc, err := w.BcastInit(buf, 0, 2, mpi.OBJECT, 0)
		if err != nil {
			return err
		}
		for k := int64(1); k <= 3; k++ {
			stage[0], stage[1] = poisonProbe{k}, "stray"
			if k == 3 {
				stage[1] = poisonProbe{-k}
			}
			if err := bc.Start(); err != nil {
				return fmt.Errorf("rank %d: Start %d after a failed deposit: %w", rank, k, err)
			}
			_, err := bc.Wait()
			switch {
			case rank == 0 || k == 3:
				if err != nil {
					return err
				}
			case mpi.ClassOf(err) != mpi.ErrType:
				t.Errorf("activation %d: %v, want the wrong-typed element's ErrType", k, err)
			}
			if rank == 1 && got[0].N != k {
				t.Errorf("activation %d: got %v, want %d first", k, got, k)
			}
		}
		if rank == 1 && got[1].N != -3 {
			t.Errorf("last activation: got %v, want [3 -3]", got)
		}
		bc.Free()

		// A truncated receive leaves a persistent receive startable.
		if rank == 0 {
			for _, n := range []int{2, 1} {
				if err := w.Send([]int32{7, 8}, 0, n, mpi.INT, 1, 9); err != nil {
					return err
				}
			}
		} else {
			one := []int32{0}
			recv, err := w.RecvInit(one, 0, 1, mpi.INT, 0, 9)
			if err != nil {
				return err
			}
			for k, want := range []mpi.ErrClass{mpi.ErrTruncate, mpi.ErrSuccess} {
				if err := recv.Start(); err != nil {
					return fmt.Errorf("receive Start %d: %w", k+1, err)
				}
				if _, err := recv.Wait(); mpi.ClassOf(err) != want {
					t.Errorf("receive activation %d: %v, want class %d", k+1, err, want)
				}
			}
			if one[0] != 7 {
				t.Errorf("receive after the truncation: %d, want 7", one[0])
			}
			recv.Free()
		}

		// Freeing the running activation's handle does not free the
		// activation.
		red, err = w.AllreduceInit(in, 0, out, 0, 1, mpi.LONG, mpi.SUM)
		if err != nil {
			return err
		}
		defer red.Free()
		if rank == 0 {
			if err := red.Start(); err != nil {
				return err
			}
			red.Request.Free()
			if err := red.Start(); mpi.ClassOf(err) != mpi.ErrRequest {
				t.Errorf("Start while the freed activation runs: %v, want ErrRequest", err)
			}
			close(freed)
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				err := red.Start()
				if err == nil {
					break
				}
				if mpi.ClassOf(err) != mpi.ErrRequest || time.Now().After(deadline) {
					return fmt.Errorf("Start after the freed activation: %w", err)
				}
			}
		} else {
			<-freed
			for i := 0; i < 2; i++ {
				if err := red.Start(); err != nil {
					return err
				}
				if i == 0 {
					if _, err := red.Wait(); err != nil {
						return err
					}
				}
			}
		}
		if _, err := red.Wait(); err != nil {
			return err
		}
		if out[0] != 3 {
			t.Errorf("rank %d: sum after the freed activation %d, want 3", rank, out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPersistentMixedWithOneShot: persistent collectives interleaved
// with one-shot blocking and nonblocking collectives and persistent
// point-to-point on the same communicator, all tag-aligned. One WaitAll
// settles the mixed set: the persistent requests join it through their
// current activations.
func TestPersistentMixedWithOneShot(t *testing.T) {
	const rounds = 20
	err := mpi.Run(3, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()
		peer := (rank + 1) % size
		src := (rank + size - 1) % size

		val := []int64{0}
		sum := []int64{0}
		red, err := w.AllreduceInit(val, 0, sum, 0, 1, mpi.LONG, mpi.SUM)
		if err != nil {
			return err
		}
		defer red.Free()

		pout := []int32{0}
		pin := []int32{0}
		psend, err := w.SendInit(pout, 0, 1, mpi.INT, peer, 3)
		if err != nil {
			return err
		}
		defer psend.Free()
		precv, err := w.RecvIntoInit(pin, 0, 1, mpi.INT, src, 3)
		if err != nil {
			return err
		}
		defer precv.Free()

		for r := 0; r < rounds; r++ {
			val[0] = int64(rank + r)
			pout[0] = int32(rank*100 + r)

			// One-shot nonblocking collective, persistent collective and
			// persistent point-to-point all in flight at once.
			bc := make([]float64, 1)
			if rank == r%size {
				bc[0] = float64(r) + 0.5
			}
			ibc, err := w.Ibcast(bc, 0, 1, mpi.DOUBLE, r%size)
			if err != nil {
				return err
			}
			if err := red.Start(); err != nil {
				return err
			}
			if err := mpi.StartAll([]*mpi.PersistentRequest{precv, psend}); err != nil {
				return err
			}

			if _, err := mpi.WaitAll([]*mpi.Request{ibc, red.Request, precv.Request, psend.Request}); err != nil {
				return err
			}

			wantSum := int64(0)
			for p := 0; p < size; p++ {
				wantSum += int64(p + r)
			}
			if sum[0] != wantSum {
				t.Errorf("rank %d round %d: persistent sum %d, want %d", rank, r, sum[0], wantSum)
			}
			if bc[0] != float64(r)+0.5 {
				t.Errorf("rank %d round %d: bcast %v, want %v", rank, r, bc[0], float64(r)+0.5)
			}
			if want := int32(src*100 + r); pin[0] != want {
				t.Errorf("rank %d round %d: p2p %d, want %d", rank, r, pin[0], want)
			}

			// A one-shot blocking collective between activations keeps the
			// communicator's instance numbering aligned with the cached
			// persistent plans.
			got := []int64{0}
			if err := w.Allreduce(val, 0, got, 0, 1, mpi.LONG, mpi.MAX); err != nil {
				return err
			}
			if want := int64(size - 1 + r); got[0] != want {
				t.Errorf("rank %d round %d: one-shot max %d, want %d", rank, r, got[0], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPersistentStartOnRevoked: Start on a revoked communicator
// reports ErrRevoked (ULFM semantics) instead of hanging.
func TestPersistentStartOnRevoked(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()

		buf := []int64{int64(rank)}
		res := []int64{0}
		red, err := w.AllreduceInit(buf, 0, res, 0, 1, mpi.LONG, mpi.SUM)
		if err != nil {
			return err
		}
		send, err := w.SendInit(buf, 0, 1, mpi.LONG, 1-rank, 5)
		if err != nil {
			return err
		}

		// One healthy activation first.
		if err := red.Start(); err != nil {
			return err
		}
		if _, err := red.Wait(); err != nil {
			return err
		}
		if res[0] != 1 {
			t.Errorf("rank %d: pre-revoke sum %d, want 1", rank, res[0])
		}

		if err := w.Revoke(); err != nil {
			return err
		}
		if err := red.Start(); mpi.ClassOf(err) != mpi.ErrRevoked {
			t.Errorf("rank %d: Start(collective) on revoked comm: %v, want ErrRevoked", rank, err)
		}
		if err := send.Start(); mpi.ClassOf(err) != mpi.ErrRevoked {
			t.Errorf("rank %d: Start(p2p) on revoked comm: %v, want ErrRevoked", rank, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestProgressPoolGoroutineBound: no goroutine per communicator and
// none per parked collective, however many of either exist. 1000 idle
// communicators contribute no goroutines; 64 collectives parked
// mid-schedule occupy none while they wait for remote traffic — a
// schedule resumes on a goroutine only while it is runnable.
func TestProgressPoolGoroutineBound(t *testing.T) {
	const (
		idleComms = 1000
		inFlight  = 64
	)
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()

		comms := make([]*mpi.Intracomm, idleComms)
		for i := range comms {
			c, err := w.Dup()
			if err != nil {
				return err
			}
			comms[i] = c
		}

		if rank == 0 {
			// Rank 0 holds back so rank 1's collectives park waiting for
			// our contributions; the pause bounds how long they idle.
			time.Sleep(300 * time.Millisecond)
			reqs := make([]*mpi.Request, inFlight)
			for i := 0; i < inFlight; i++ {
				r, err := comms[i].Iallreduce([]int64{1}, 0, []int64{0}, 0, 1, mpi.LONG, mpi.SUM)
				if err != nil {
					return err
				}
				reqs[i] = r
			}
			for _, r := range reqs {
				if _, err := r.Wait(); err != nil {
					return err
				}
			}
			return nil
		}

		before := runtime.NumGoroutine()
		reqs := make([]*mpi.Request, inFlight)
		for i := 0; i < inFlight; i++ {
			r, err := comms[i].Iallreduce([]int64{1}, 0, []int64{0}, 0, 1, mpi.LONG, mpi.SUM)
			if err != nil {
				return err
			}
			reqs[i] = r
		}
		// Every schedule parked at its first gate inside Iallreduce (rank
		// 0 has not contributed yet); give stray goroutines time to show.
		time.Sleep(100 * time.Millisecond)
		during := runtime.NumGoroutine()

		// A goroutine per parked schedule would be ≥ before + inFlight; a
		// parked schedule holds none, so only a little slack is left for
		// unrelated runtime goroutines starting up.
		if limit := before + 8; during > limit {
			t.Errorf("goroutines: %d in flight took %d -> %d, want <= %d", inFlight, before, during, limit)
		}

		for _, r := range reqs {
			if _, err := r.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSeqWrapKeepsPersistentApart: a persistent plan keeps the instance
// it was made with, while one-shot instances wrap; after 2^26 of them a
// one-shot call's instance lands on the live persistent plan's, and the
// two must still not cross-match. Each round makes an AllreduceInit,
// skips 2^26 − 1 instances, then runs the persistent activation and a
// one-shot allreduce of the same shape together — a blocking call (a
// plan re-armed from the cache) in half the rounds, an Iallreduce in
// the other half. Each must come back with its own sum. Under the race
// detector, whose atomics make the skips ten times slower, two rounds
// (one of each form) stand for the six.
func TestSeqWrapKeepsPersistentApart(t *testing.T) {
	const wrap = 1 << 26
	rounds := 6
	if raceEnabled {
		rounds = 2
	}
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()
		pin, pout := []int64{int64(rank + 1)}, []int64{0}
		oin, oout := []int64{int64(100 * (rank + 1))}, []int64{0}
		if err := w.Allreduce(oin, 0, oout, 0, 1, mpi.LONG, mpi.SUM); err != nil { // cache the one-shot plan
			return err
		}
		for round := 0; round < rounds; round++ {
			red, err := w.AllreduceInit(pin, 0, pout, 0, 1, mpi.LONG, mpi.SUM)
			if err != nil {
				return err
			}
			for i := 0; i < wrap-1; i++ {
				w.SkipColl()
			}
			if err := red.Start(); err != nil {
				return err
			}
			if rank == 1 {
				// Rank 1's persistent traffic leaves first, while rank 0
				// may post its one-shot receive before its persistent one:
				// equal tags would cross-match here.
				time.Sleep(time.Millisecond)
			}
			if round%2 == 0 {
				err = w.Allreduce(oin, 0, oout, 0, 1, mpi.LONG, mpi.SUM)
			} else {
				var req *mpi.Request
				if req, err = w.Iallreduce(oin, 0, oout, 0, 1, mpi.LONG, mpi.SUM); err == nil {
					_, err = req.Wait()
				}
			}
			if err != nil {
				return err
			}
			if _, err := red.Wait(); err != nil {
				return err
			}
			if pout[0] != 3 || oout[0] != 300 {
				t.Errorf("rank %d round %d: persistent %d (want 3), one-shot %d (want 300)", rank, round, pout[0], oout[0])
			}
			red.Free()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
