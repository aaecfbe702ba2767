package mpi_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/transport"
	"gompi/mpi"
)

// TestCallerDrivesProgress: a caller blocked in Wait drives its rank's
// progress itself, parked on the mailbox's doorbell, so the frame it
// waits for wakes it and nobody else. Over a ping-pong the engine's
// progress goroutine is next to never woken: only a message that lands
// while its receiver is between calls wakes it.
func TestCallerDrivesProgress(t *testing.T) {
	const trips = 10000
	var wakes, polls [2]int64
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank, peer := w.Rank(), 1-w.Rank()
		buf := make([]byte, 8)
		if err := w.Barrier(); err != nil {
			return err
		}
		wakes0, _ := env.PerfVar("core.progress_wakes")
		polls0, _ := env.PerfVar("core.caller_polls")
		for i := 0; i < trips; i++ {
			if rank == 0 {
				buf[0] = byte(i)
				if err := w.Send(buf, 0, 8, mpi.BYTE, peer, 1); err != nil {
					return err
				}
			}
			if _, err := w.Recv(buf, 0, 8, mpi.BYTE, peer, 1); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("round trip %d carried %d", i, buf[0])
			}
			if rank == 1 {
				if err := w.Send(buf, 0, 8, mpi.BYTE, peer, 1); err != nil {
					return err
				}
			}
		}
		wakes1, _ := env.PerfVar("core.progress_wakes")
		polls1, _ := env.PerfVar("core.caller_polls")
		wakes[rank], polls[rank] = wakes1-wakes0, polls1-polls0
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := float64(2 * trips)
	perMsg := float64(wakes[0]+wakes[1]) / msgs
	t.Logf("per message: %.4f progress goroutine wakes, %.3f caller parks", perMsg, float64(polls[0]+polls[1])/msgs)
	// The race detector stretches the time a rank spends between its Recv
	// calls tenfold, and a ping landing there is the progress goroutine's
	// (≈ 0.13 per message under -race beside other packages' tests, ≈ 0.001
	// without): there the bound only tells one wake per message from
	// almost none.
	bound := 0.05
	if raceEnabled {
		bound = 0.5
	}
	if perMsg > bound {
		t.Fatalf("the progress goroutine was woken %.3f times per message (%v), want <= %v", perMsg, wakes, bound)
	}
}

// TestFramesTakenPerRoundTrip: over chan an eager message finds its
// receiver's mailbox empty, so its sender runs it through the
// receiver's engine itself — both frames of every 8-byte round trip
// are counted in core.frames_taken — while over tcp every frame goes
// through the mailbox.
func TestFramesTakenPerRoundTrip(t *testing.T) {
	const trips = 1000
	for _, tc := range []struct {
		device string
		want   int64
	}{{"chan", 2 * trips}, {"tcp", 0}} {
		t.Run(tc.device, func(t *testing.T) {
			var taken [2]int64
			// Both ranks read the counter before either sends: a ping
			// taken before its receiver had read it would not count.
			var counted sync.WaitGroup
			counted.Add(2)
			err := mpi.RunWith(mpi.RunOptions{NP: 2, Device: tc.device}, func(env *mpi.Env) error {
				w := env.CommWorld()
				rank, peer := w.Rank(), 1-w.Rank()
				buf := make([]byte, 8)
				if err := w.Barrier(); err != nil {
					return err
				}
				before, _ := env.PerfVar("core.frames_taken")
				counted.Done()
				counted.Wait()
				for i := 0; i < trips; i++ {
					if rank == 0 {
						if err := w.Send(buf, 0, 8, mpi.BYTE, peer, 1); err != nil {
							return err
						}
					}
					if _, err := w.Recv(buf, 0, 8, mpi.BYTE, peer, 1); err != nil {
						return err
					}
					if rank == 1 {
						if err := w.Send(buf, 0, 8, mpi.BYTE, peer, 1); err != nil {
							return err
						}
					}
				}
				after, _ := env.PerfVar("core.frames_taken")
				taken[rank] = after - before
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := taken[0] + taken[1]; got != tc.want {
				t.Fatalf("core.frames_taken rose by %d (%v) over %d round trips, want %d", got, taken, trips, tc.want)
			}
		})
	}
}

// busy computes for d without calling MPI or parking.
func busy(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestIdleRankStillProgresses: progress does not wait for a caller. A
// rank that posted a receive and then computes without calling MPI
// still grants its sender's rendezvous, so the sender's Send returns
// long before the receiver calls back in; a rank that never calls MPI
// still drains its mailbox, so more eager sends than the mailbox holds
// all complete before it does; a started collective nobody waits for
// still runs its rounds, so its partners' calls complete while its
// owner computes; and two ranks flooding each other while each has a
// started collective resuming all complete.
func TestIdleRankStillProgresses(t *testing.T) {
	const compute = 300 * time.Millisecond
	t.Run("rendezvous/tcp", func(t *testing.T) {
		var sent, back atomic.Int64
		err := mpi.RunWith(mpi.RunOptions{NP: 2, Device: "tcp"}, func(env *mpi.Env) error {
			w := env.CommWorld()
			buf := make([]byte, 1<<20)
			if w.Rank() == 0 {
				for i := range buf {
					buf[i] = byte(i * 7)
				}
				if err := w.Barrier(); err != nil {
					return err
				}
				if err := w.Send(buf, 0, len(buf), mpi.BYTE, 1, 9); err != nil {
					return err
				}
				sent.Store(time.Now().UnixNano())
				return nil
			}
			req, err := w.Irecv(buf, 0, len(buf), mpi.BYTE, 0, 9)
			if err != nil {
				return err
			}
			if err := w.Barrier(); err != nil {
				return err
			}
			busy(compute)
			back.Store(time.Now().UnixNano())
			if _, err := req.Wait(); err != nil {
				return err
			}
			for i := range buf {
				if buf[i] != byte(i*7) {
					return fmt.Errorf("byte %d arrived as %d", i, buf[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if sent.Load() == 0 || sent.Load() > back.Load() {
			t.Fatalf("the sender's Send returned %v after the receiver called back in", time.Duration(sent.Load()-back.Load()))
		}
	})
	for _, device := range []string{"chan", "tcp"} {
		t.Run("flow control/"+device, func(t *testing.T) {
			n := transport.DefaultInboxDepth + 64
			var sent, back atomic.Int64
			err := mpi.RunWith(mpi.RunOptions{NP: 2, Device: device}, func(env *mpi.Env) error {
				w := env.CommWorld()
				if w.Rank() == 0 {
					for i := 0; i < n; i++ {
						if err := w.Send([]int32{int32(i)}, 0, 1, mpi.INT, 1, 4); err != nil {
							return err
						}
					}
					sent.Store(time.Now().UnixNano())
					return nil
				}
				for deadline := time.Now().Add(10 * time.Second); sent.Load() == 0 && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				back.Store(time.Now().UnixNano())
				got := []int32{-1}
				for i := 0; i < n; i++ {
					if _, err := w.Recv(got, 0, 1, mpi.INT, 0, 4); err != nil {
						return err
					}
					if got[0] != int32(i) {
						return fmt.Errorf("message %d arrived as %d", i, got[0])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if sent.Load() == 0 || sent.Load() > back.Load() {
				t.Fatalf("%d eager sends to a rank that never called MPI did not complete before it did", n)
			}
		})
	}
	t.Run("unattended Iallreduce/np4", func(t *testing.T) {
		const rounds = 2
		var done [rounds][3]atomic.Int64
		var back [rounds]atomic.Int64
		err := mpi.Run(4, func(env *mpi.Env) error {
			w := env.CommWorld()
			rank := w.Rank()
			for r := 0; r < rounds; r++ {
				out := []float64{0}
				req, err := w.Iallreduce([]float64{float64(rank + r)}, 0, out, 0, 1, mpi.DOUBLE, mpi.SUM)
				if err != nil {
					return err
				}
				if rank == 3 {
					busy(compute)
					back[r].Store(time.Now().UnixNano())
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
				if rank < 3 {
					done[r][rank].Store(time.Now().UnixNano())
				}
				if want := float64(6 + 4*r); out[0] != want {
					return fmt.Errorf("rank %d round %d: sum %v, want %v", rank, r, out[0], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := range done {
			for rank := range done[r] {
				if at := done[r][rank].Load(); at == 0 || at > back[r].Load() {
					t.Errorf("round %d: rank %d's Iallreduce completed %v after rank 3 called back in", r, rank, time.Duration(at-back[r].Load()))
				}
			}
		}
	})
	for _, device := range []string{"chan", "tcp"} {
		t.Run("flood with collectives resuming/"+device, func(t *testing.T) {
			const count = 1 << 15 // 256 KiB: lent windows, whose rendezvous needs the peer's progress
			n := transport.DefaultInboxDepth + 64
			err := mpi.RunWith(mpi.RunOptions{NP: 2, Device: device}, func(env *mpi.Env) error {
				w := env.CommWorld()
				rank, peer := w.Rank(), 1-w.Rank()
				in, out := make([]float64, count), make([]float64, count)
				for i := range in {
					in[i] = float64(rank + 1)
				}
				req, err := w.Iallreduce(in, 0, out, 0, count, mpi.DOUBLE, mpi.SUM)
				if err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if err := w.Send([]int32{int32(i)}, 0, 1, mpi.INT, peer, 4); err != nil {
						return err
					}
				}
				got := []int32{-1}
				for i := 0; i < n; i++ {
					if _, err := w.Recv(got, 0, 1, mpi.INT, peer, 4); err != nil {
						return err
					}
					if got[0] != int32(i) {
						return fmt.Errorf("rank %d: message %d arrived as %d", rank, i, got[0])
					}
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
				for i, v := range out {
					if v != 3 {
						return fmt.Errorf("rank %d: sum[%d] = %v, want 3", rank, i, v)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIprobeReportsWhatBarsAMessage: Iprobe on a revoked communicator,
// or pinned to a source known lost, fails as Probe does — a polling
// loop would otherwise see "nothing pending" for ever.
func TestIprobeReportsWhatBarsAMessage(t *testing.T) {
	// probeFails polls Iprobe until it fails, then holds Probe to the
	// same error class.
	probeFails := func(w *mpi.Intracomm, src, tag int, want mpi.ErrClass) error {
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, err := w.Iprobe(src, tag)
			if err != nil {
				if mpi.ClassOf(err) != want || st != nil {
					return fmt.Errorf("Iprobe: %v (status %v), want class %v", err, st, want)
				}
				break
			}
			if st != nil {
				return fmt.Errorf("Iprobe found a message: %+v", st)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("Iprobe still reports nothing pending, want class %v", want)
			}
			time.Sleep(time.Millisecond)
		}
		if _, err := w.Probe(src, tag); mpi.ClassOf(err) != want {
			return fmt.Errorf("Probe: %v, want class %v", err, want)
		}
		return nil
	}
	t.Run("revoked", func(t *testing.T) {
		err := mpi.Run(2, func(env *mpi.Env) error {
			w := env.CommWorld()
			if w.Rank() == 1 {
				return w.Revoke()
			}
			return probeFails(w, 1, 5, mpi.ErrRevoked)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("lost source", func(t *testing.T) {
		const victim = 1
		err := mpi.RunWith(mpi.RunOptions{NP: 2, Device: "tcp", WrapDevice: faultOn(victim, 1)}, func(env *mpi.Env) error {
			w := env.CommWorld()
			if w.Rank() == victim {
				// The first frame is delivered; the second kills the endpoint.
				w.Send([]int32{7}, 0, 1, mpi.INT, 0, 1) //nolint:errcheck
				w.Send([]int32{8}, 0, 1, mpi.INT, 0, 1) //nolint:errcheck
				return errVictimDown
			}
			got := []int32{0}
			if _, err := w.Recv(got, 0, 1, mpi.INT, victim, 1); err != nil || got[0] != 7 {
				return fmt.Errorf("recv before the loss: %v (got %d)", err, got[0])
			}
			return probeFails(w, victim, 2, mpi.ErrProcFailed)
		})
		if err == nil || !strings.Contains(err.Error(), errVictimDown.Error()) || strings.Contains(err.Error(), "rank 0") {
			t.Fatalf("job error = %v, want only the victim's sentinel", err)
		}
	})
}
