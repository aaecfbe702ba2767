package mpi_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gompi/internal/transport"
	"gompi/mpi"
)

// errVictimDown is the sentinel a fault-injected rank returns once its
// endpoint has been killed; the driver asserts it is the only failure.
var errVictimDown = errors.New("victim endpoint killed (expected)")

// faultOn interposes transport.Faulty on one rank of an in-process job:
// after killAfter outbound frames the rank's endpoint dies (its device
// closes), deterministically reproducing a mid-collective SIGKILL.
func faultOn(victim, killAfter int) func(int, transport.Device) transport.Device {
	return func(rank int, dev transport.Device) transport.Device {
		if rank != victim {
			return dev
		}
		return transport.NewFaulty(dev, transport.FaultPlan{Rank: victim, KillAfterSends: killAfter})
	}
}

// TestULFMShrinkAfterRankDeath is the full recovery loop, in process and
// deterministic: 4 ranks iterate allreduces, rank 3's endpoint dies
// after a fixed frame count, survivors observe MPI_ERR_PROC_FAILED or
// MPI_ERR_REVOKED, revoke, ack, shrink — and the shrunken communicator
// carries working collectives and point-to-point traffic.
func TestULFMShrinkAfterRankDeath(t *testing.T) {
	const np, victim = 4, 3
	var mu sync.Mutex
	recovered := map[int]bool{}

	err := mpi.RunWith(mpi.RunOptions{
		NP: np, Device: "tcp",
		WrapDevice: faultOn(victim, 10),
	}, func(e *mpi.Env) error {
		w := e.CommWorld()
		rank := w.Rank()

		var ferr error
		for iter := 0; iter < 1000 && ferr == nil; iter++ {
			in, out := []int32{1}, []int32{0}
			ferr = w.Allreduce(in, 0, out, 0, 1, mpi.INT, mpi.SUM)
			if ferr == nil && out[0] != np {
				return fmt.Errorf("rank %d iter %d: allreduce = %d, want %d", rank, iter, out[0], np)
			}
		}
		if rank == victim {
			if ferr == nil {
				return errors.New("victim never died")
			}
			return errVictimDown
		}
		if ferr == nil {
			return fmt.Errorf("rank %d: survivor never observed the failure", rank)
		}
		if cls := mpi.ClassOf(ferr); cls != mpi.ErrProcFailed && cls != mpi.ErrRevoked {
			return fmt.Errorf("rank %d: failure class %v, want PROC_FAILED or REVOKED (%v)", rank, cls, ferr)
		}

		// The ULFM repair loop.
		if err := w.Revoke(); err != nil {
			return fmt.Errorf("rank %d: revoke: %w", rank, err)
		}
		if !w.Revoked() {
			return fmt.Errorf("rank %d: communicator not revoked after Revoke", rank)
		}
		if err := w.FailureAck(); err != nil {
			return fmt.Errorf("rank %d: ack: %w", rank, err)
		}
		shrunk, err := w.Shrink()
		if err != nil {
			return fmt.Errorf("rank %d: shrink: %w", rank, err)
		}
		if shrunk.Size() != np-1 {
			return fmt.Errorf("rank %d: shrunk size %d, want %d", rank, shrunk.Size(), np-1)
		}
		if shrunk.Revoked() {
			return fmt.Errorf("rank %d: shrunken communicator born revoked", rank)
		}

		// The repaired communicator must carry real traffic.
		in, out := []int32{1}, []int32{0}
		if err := shrunk.Allreduce(in, 0, out, 0, 1, mpi.INT, mpi.SUM); err != nil {
			return fmt.Errorf("rank %d: allreduce on shrunk: %w", rank, err)
		}
		if out[0] != np-1 {
			return fmt.Errorf("rank %d: shrunk allreduce = %d, want %d", rank, out[0], np-1)
		}
		root := []int32{0}
		if shrunk.Rank() == 0 {
			root[0] = 42
		}
		if err := shrunk.Bcast(root, 0, 1, mpi.INT, 0); err != nil {
			return fmt.Errorf("rank %d: bcast on shrunk: %w", rank, err)
		}
		if root[0] != 42 {
			return fmt.Errorf("rank %d: bcast on shrunk delivered %d", rank, root[0])
		}
		next := (shrunk.Rank() + 1) % shrunk.Size()
		prev := (shrunk.Rank() + shrunk.Size() - 1) % shrunk.Size()
		got := []int32{-1}
		if _, err := shrunk.Sendrecv([]int32{int32(shrunk.Rank())}, 0, 1, mpi.INT, next, 5,
			got, 0, 1, mpi.INT, prev, 5); err != nil {
			return fmt.Errorf("rank %d: sendrecv on shrunk: %w", rank, err)
		}
		if got[0] != int32(prev) {
			return fmt.Errorf("rank %d: ring got %d, want %d", rank, got[0], prev)
		}

		mu.Lock()
		recovered[rank] = true
		mu.Unlock()
		return nil
	})

	if err == nil {
		t.Fatal("job reported no error; the victim's sentinel should surface")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("rank %d: %v", victim, errVictimDown)) {
		t.Fatalf("job error = %v, want only the victim's sentinel", err)
	}
	for r := 0; r < np; r++ {
		if r != victim && !recovered[r] {
			t.Errorf("rank %d did not complete recovery", r)
		}
	}
}

// TestULFMAgreeAckCycle exercises the MPIX_Comm_agree contract: an
// agreement that observes an unacknowledged failure returns the folded
// flags with ErrProcFailed; after FailureAck the retry succeeds and
// FailedGroup names the dead member.
func TestULFMAgreeAckCycle(t *testing.T) {
	const np, victim = 3, 2
	err := mpi.RunWith(mpi.RunOptions{
		NP: np, Device: "tcp",
		WrapDevice: faultOn(victim, 6),
	}, func(e *mpi.Env) error {
		w := e.CommWorld()
		rank := w.Rank()

		var ferr error
		for iter := 0; iter < 1000 && ferr == nil; iter++ {
			in, out := []int32{1}, []int32{0}
			ferr = w.Allreduce(in, 0, out, 0, 1, mpi.INT, mpi.SUM)
		}
		if rank == victim {
			return errVictimDown
		}
		if ferr == nil {
			return fmt.Errorf("rank %d: survivor never observed the failure", rank)
		}
		// Revoke first (the ULFM loop): the other survivor may still be
		// blocked on us inside the abandoned collective, and only
		// revocation frees it to reach the agreement. Agree itself runs
		// on the revoked communicator — its traffic is recovery-tagged.
		if err := w.Revoke(); err != nil {
			return fmt.Errorf("rank %d: revoke: %w", rank, err)
		}

		flags, aerr := w.Agree(0xf0 | uint32(rank))
		if mpi.ClassOf(aerr) != mpi.ErrProcFailed {
			return fmt.Errorf("rank %d: first Agree err = %v, want MPI_ERR_PROC_FAILED", rank, aerr)
		}
		if err := w.FailureAck(); err != nil {
			return err
		}
		fg, err := w.FailedGroup()
		if err != nil {
			return err
		}
		if fg.Size() != 1 {
			return fmt.Errorf("rank %d: acked group size %d, want 1", rank, fg.Size())
		}
		flags, aerr = w.Agree(0xf0 | uint32(rank))
		if aerr != nil {
			return fmt.Errorf("rank %d: post-ack Agree: %w", rank, aerr)
		}
		if flags != 0xf0 {
			return fmt.Errorf("rank %d: agreed flags %#x, want 0xf0", rank, flags)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), errVictimDown.Error()) {
		t.Fatalf("job error = %v, want only the victim's sentinel", err)
	}
}

// TestULFMRequestErrorIdempotent: a request completed with
// MPI_ERR_PROC_FAILED reports the same terminal outcome through Wait,
// repeated Wait, Test and WaitCtx — no hang, no double-release.
func TestULFMRequestErrorIdempotent(t *testing.T) {
	const np, victim = 2, 1
	err := mpi.RunWith(mpi.RunOptions{
		NP: np, Device: "tcp",
		WrapDevice: faultOn(victim, 1),
	}, func(e *mpi.Env) error {
		w := e.CommWorld()
		if w.Rank() == victim {
			// First eager frame delivers; the second triggers the kill.
			w.Send([]int32{7}, 0, 1, mpi.INT, 0, 1) //nolint:errcheck
			w.Send([]int32{8}, 0, 1, mpi.INT, 0, 2) //nolint:errcheck
			return errVictimDown
		}
		got := []int32{0}
		if _, err := w.Recv(got, 0, 1, mpi.INT, victim, 1); err != nil || got[0] != 7 {
			return fmt.Errorf("pre-kill recv: %v (got %d)", err, got[0])
		}
		req, err := w.Irecv(got, 0, 1, mpi.INT, victim, 2)
		if err != nil {
			return err
		}
		st, werr := req.Wait()
		if mpi.ClassOf(werr) != mpi.ErrProcFailed {
			return fmt.Errorf("Wait after peer death: %v, want MPI_ERR_PROC_FAILED", werr)
		}
		if st.Error != mpi.ErrProcFailed {
			return fmt.Errorf("status error class %v, want MPI_ERR_PROC_FAILED", st.Error)
		}
		// Every further observation is idempotent.
		if _, werr2 := req.Wait(); !errors.Is(werr2, werr) {
			return fmt.Errorf("second Wait: %v, want the same error", werr2)
		}
		st3, done, werr3 := req.Test()
		if !done || !errors.Is(werr3, werr) || st3.Error != mpi.ErrProcFailed {
			return fmt.Errorf("Test after failure: done=%v err=%v", done, werr3)
		}
		if _, werr4 := req.WaitCtx(context.Background()); !errors.Is(werr4, werr) {
			return fmt.Errorf("WaitCtx after failure: %v, want the same error", werr4)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), errVictimDown.Error()) {
		t.Fatalf("job error = %v, want only the victim's sentinel", err)
	}
}

// TestIntercommRemoteLeaderLossFailsFast: the leader relays of an
// intercommunicator's collectives receive from the remote leader, so its
// loss must fail them, and a leader whose relay failed must fail its own
// group too. Sides {0,2} and {1,3} over tcp; world rank 1, side 1's
// leader, loses its endpoint while side 0 waits in the collective.
func TestIntercommRemoteLeaderLossFailsFast(t *testing.T) {
	for _, op := range []string{"Barrier", "Merge", "Bcast"} {
		t.Run(op, func(t *testing.T) {
			const victim = 1
			var victimDev transport.Device
			var mu sync.Mutex
			side0 := map[int]error{}
			job := make(chan error, 1)
			go func() {
				job <- mpi.RunWith(mpi.RunOptions{
					NP: 4, Device: "tcp",
					WrapDevice: func(rank int, dev transport.Device) transport.Device {
						if rank == victim {
							victimDev = dev
						}
						return dev
					},
				}, func(e *mpi.Env) error {
					w := e.CommWorld()
					side := w.Rank() % 2
					local, err := w.Split(side, w.Rank())
					if err != nil {
						return err
					}
					ic, err := local.CreateIntercomm(&w.Comm, 0, 1-side, 5)
					if err != nil {
						return err
					}
					if w.Rank() == victim {
						time.Sleep(300 * time.Millisecond)
						victimDev.Close()
						return errVictimDown
					}
					start := time.Now()
					switch op {
					case "Barrier":
						err = ic.Barrier()
					case "Merge":
						_, err = ic.Merge(side == 1)
					case "Bcast":
						root := 0 // side 1's leader, the victim
						if side == 1 {
							root = mpi.ProcNull
						}
						err = ic.Bcast([]int32{0}, 0, 1, mpi.INT, root)
					}
					if side == 0 {
						if took := time.Since(start); err == nil || took > 10*time.Second {
							err = fmt.Errorf("returned %v after %v", err, took)
						}
						mu.Lock()
						side0[w.Rank()] = err
						mu.Unlock()
					}
					return nil
				})
			}()
			select {
			case <-job:
			case <-time.After(15 * time.Second):
				mu.Lock()
				defer mu.Unlock()
				t.Fatalf("job still running after 15 s; side 0 returned %v", side0)
			}
			for _, r := range []int{0, 2} {
				if cls := mpi.ClassOf(side0[r]); cls != mpi.ErrProcFailed && cls != mpi.ErrRevoked {
					t.Errorf("world rank %d: %v, want PROC_FAILED or REVOKED", r, side0[r])
				}
			}
		})
	}
}
