package mpi_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/transport"
	"gompi/mpi"
)

// A large allreduce lends windows of the caller's buffers to its
// partners and has the engine deposit into others. The two tests below
// abandon one in the middle of the reduce-scatter — by cancellation, by
// a peer's death — and hold the runtime to what makes that safe: every
// member comes back with an error in bounded time, and once it has,
// nothing of the abandoned schedule is left behind — no partner still
// reads a lent window, no deposit is still to land (the buffers are
// overwritten the moment the call returns; under -race a late reader or
// writer is a reported race), no goroutine, and no pooled frame.

// abandonJob runs body as a job under a watchdog and checks that it left
// no goroutine behind. settled, which every rank calls once its part in
// the abandoned collective is over, is where the frame pool is audited:
// between job start and the moment the last rank has settled, every
// buffer drawn has come back. (The job's Finalize, which runs a
// barrier, returns its frames too, as every collective does:
// TestEveryCollectiveReturnsItsFrames.)
func abandonJob(t *testing.T, opt mpi.RunOptions, body func(env *mpi.Env, settled func() error) error) error {
	t.Helper()
	goroutines, pool := runtime.NumGoroutine(), transport.PoolStats()
	var arrived sync.WaitGroup
	arrived.Add(opt.NP)
	audit := sync.OnceValue(func() error {
		arrived.Wait()
		var gets, back uint64
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			now := transport.PoolStats()
			if gets, back = now.Gets-pool.Gets, now.Puts-pool.Puts+now.Drops-pool.Drops; gets == back {
				return nil
			}
		}
		return fmt.Errorf("frame pool: %d buffers drawn, %d returned", gets, back)
	})
	settled := func() error {
		arrived.Done()
		return audit()
	}
	done := make(chan error, 1)
	go func() { done <- mpi.RunWith(opt, func(env *mpi.Env) error { return body(env, settled) }) }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("job hung:\n%s", buf[:runtime.Stack(buf, true)])
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before the job, %d after:\n%s", goroutines, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
	return err
}

// iallreduce is the cancellable large allreduce the tests abandon:
// Iallreduce of DOUBLE/SUM, waited under ctx.
func iallreduce(ctx context.Context, w *mpi.Intracomm, send, recv []float64) error {
	return waitCtx(ctx)(w.Iallreduce(send, 0, recv, 0, len(send), mpi.DOUBLE, mpi.SUM))
}

// scribble overwrites buffers a returned call has given back.
func scribble(bufs ...[]float64) {
	for _, b := range bufs {
		for i := range b {
			b[i] = -1
		}
	}
}

// TestAllreduceAbandonedByCancel: rank 3 is late, so ranks 0 and 1 get
// through the first round of the reduce-scatter and stall in the second
// with a window on loan to a partner that has not asked for it yet, and
// rank 2 stalls in the first. Their contexts fire: the first to fire
// cancels the instance, so each of the three returns its deadline or,
// when another's cancellation reached it first, ErrOther. The late rank
// then makes its call and fails instead of waiting for data nobody will
// send. The communicator
// carries the next allreduce as if nothing had happened. The "chan" row
// runs on a chan job sealed without islands; on a plain chan job (the
// "island" row) the island takes the call instead: the three leave
// copies of their contributions, lend nothing, and the late member's
// call succeeds with the copies — not with what they wrote after their
// calls returned.
func TestAllreduceAbandonedByCancel(t *testing.T) {
	const np, count = 4, 64 << 10 // 512 KiB: the halving schedule on either medium
	for _, device := range []string{"chan", "tcp", "island"} {
		t.Run(device, func(t *testing.T) {
			island := device == "island"
			opt := mpi.RunOptions{NP: np}
			switch device {
			case "chan":
				opt.WrapDevice = mpi.NoIsland
			case "tcp":
				opt.Device = device
			}
			gone := make(chan struct{}, np-1)
			err := abandonJob(t, opt, func(env *mpi.Env, settled func() error) error {
				w := env.CommWorld()
				send, recv := make([]float64, count), make([]float64, count)
				folds := pv(env, "coll.island_folds")
				start := time.Now()
				if w.Rank() == np-1 {
					for i := 0; i < np-1; i++ {
						<-gone
					}
					err := w.Allreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM)
					if err == nil && !island {
						return errors.New("late rank: an allreduce its partners abandoned succeeded")
					}
					if err != nil && island {
						return fmt.Errorf("late rank: %v from an island its partners left copies in", err)
					}
					for i, v := range recv {
						if island && v != 0 {
							return fmt.Errorf("late rank: element %d = %v, want 0", i, v)
						}
					}
				} else {
					ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
					defer cancel()
					lent := pv(env, "core.sends_lent")
					err := iallreduce(ctx, w, send, recv)
					if !errors.Is(err, context.DeadlineExceeded) && (island || !instanceCancelled(err)) {
						return fmt.Errorf("rank %d: %v, want the deadline", w.Rank(), err)
					}
					// Ranks 0 and 1 lent a window in each of two rounds, rank 2 in one.
					want := uint64(2 - w.Rank()/2)
					if island {
						want = 0
					}
					if got := pv(env, "core.sends_lent") - lent; got != want {
						return fmt.Errorf("rank %d: cancelled with %d windows lent, want %d (not mid reduce-scatter)", w.Rank(), got, want)
					}
					scribble(send, recv)
					gone <- struct{}{}
				}
				if took := time.Since(start); took > 20*time.Second {
					return fmt.Errorf("rank %d: abandoned allreduce took %v to return", w.Rank(), took)
				}
				if err := settled(); err != nil {
					return err
				}
				for i := range send {
					send[i] = float64(w.Rank() + i%3)
				}
				if err := w.Allreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM); err != nil {
					return fmt.Errorf("rank %d: allreduce after the abandoned one: %w", w.Rank(), err)
				}
				if recv[0] != 6 || recv[count-1] != float64(6+np*((count-1)%3)) {
					return fmt.Errorf("rank %d: allreduce after the abandoned one = %v … %v", w.Rank(), recv[0], recv[count-1])
				}
				folded, err := foldsSince(env, w, folds)
				if want := map[bool]uint64{true: 2}[island]; err == nil && folded != want {
					err = fmt.Errorf("rank %d: %d island folds, want %d", w.Rank(), folded, want)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllreduceAbandonedByPeerDeath: rank 3's endpoint dies a fixed
// number of frames into a loop of large allreduces — partway through a
// reduce-scatter, with windows lent to it and by it. Whoever notices
// first revokes the communicator, as a fault-tolerant program does, and
// every survivor's call fails. Calls carry a deadline, as they must on a
// medium that reports no peer's loss (in process there is no connection
// to break): there a survivor learns of the death only by sending to
// the dead rank, and the ones that were waiting for it wait on.
func TestAllreduceAbandonedByPeerDeath(t *testing.T) {
	const np, count, victim = 4, 64 << 10, 3
	// The victim sends three frames per round (RTS, CTS, DATA), four
	// rounds per allreduce: frame 41 is in the fourth call's second round.
	for _, device := range []string{"chan", "tcp"} {
		t.Run(device, func(t *testing.T) {
			err := abandonJob(t, mpi.RunOptions{NP: np, Device: device, WrapDevice: faultOn(victim, 40)}, func(env *mpi.Env, settled func() error) error {
				w := env.CommWorld()
				send, recv := make([]float64, count), make([]float64, count)
				var ferr error
				start := time.Now()
				for iter := 0; iter < 100 && ferr == nil; iter++ {
					for i := range send {
						send[i] = float64(iter)
					}
					start = time.Now()
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					ferr = iallreduce(ctx, w, send, recv)
					cancel()
					if ferr == nil && (recv[0] != float64(np*iter) || recv[count-1] != float64(np*iter)) {
						return fmt.Errorf("rank %d call %d: %v … %v", w.Rank(), iter, recv[0], recv[count-1])
					}
				}
				if ferr == nil {
					return fmt.Errorf("rank %d never saw the failure", w.Rank())
				}
				scribble(send, recv)
				if w.Rank() != victim {
					if err := w.Revoke(); err != nil {
						return err
					}
				}
				if took := time.Since(start); took > 20*time.Second {
					return fmt.Errorf("rank %d: the failed allreduce took %v to return", w.Rank(), took)
				}
				if err := settled(); err != nil {
					return err
				}
				if w.Rank() == victim {
					return errVictimDown
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), errVictimDown.Error()) || strings.Count(err.Error(), "rank ") != 1 {
				t.Fatalf("job error = %v, want only the victim's sentinel", err)
			}
		})
	}
}

// TestIslandLeaveDuringFold: a member whose call ends while the fold is
// open — its wait cancelled, or the communicator revoked — helps fold and
// returns only once the fold is over, with the whole sum in its
// accumulator, which the fold still wrote. All members but the last
// start a large Iallreduce; the last arrives late, which opens the fold,
// and a moment later one member cancels its wait (or revokes the
// communicator). Nobody hangs, the late member's call completes, every
// member that got a result or left no copy behind holds the whole sum,
// and each member overwrites its buffers the instant its call returns: a
// fold that still read or wrote them would leave a wrong sum elsewhere,
// a value other than the scribble here, or (under -race) a reported
// race; and the job leaves no goroutine behind. Attempts repeat, with
// the moment moved, until a leave has landed in an open fold: a call
// that failed while its member left no copy behind
// (coll.island_abandoned unmoved). Rows: 4 MiB at np4, and 256 KiB —
// one tree step per block at np4, a pre-fold pair below it at np5 — with
// the moment moved in finer steps, as the fold is over sooner.
func TestIslandLeaveDuringFold(t *testing.T) {
	rows := []struct {
		np, count int
		step      time.Duration
	}{{4, 512 << 10, 100 * time.Microsecond}, {4, 32 << 10, 10 * time.Microsecond}, {5, 32 << 10, 10 * time.Microsecond}}
	for _, how := range []string{"cancel", "revoke"} {
		t.Run(how, func(t *testing.T) {
			for _, row := range rows {
				t.Run(fmt.Sprintf("np%d/%dKiB", row.np, row.count>>7), func(t *testing.T) { leaveDuringFold(t, how, row.np, row.count, row.step) })
			}
		})
	}
}

func leaveDuringFold(t *testing.T, how string, np, count int, step time.Duration) {
	const attempts = 64
	sum := float64(np * (np + 1) / 2)
	opening := make([]chan struct{}, attempts)
	for i := range opening {
		opening[i] = make(chan struct{})
	}
	var landed atomic.Int32
	var wrong atomic.Pointer[error] // the first; who finds one goes on, so nobody is left waiting
	report := func(err error) { wrong.CompareAndSwap(nil, &err) }
	err := abandonJob(t, mpi.RunOptions{NP: np}, func(env *mpi.Env, _ func() error) error {
		w := env.CommWorld()
		rank := w.Rank()
		send, recv := make([]float64, count), make([]float64, count)
		for attempt := 0; attempt < attempts && landed.Load() == 0 && wrong.Load() == nil; attempt++ {
			d, err := w.Dup()
			if err != nil {
				return err
			}
			for i := range send {
				send[i] = float64(rank + 1)
			}
			left := pv(env, "coll.island_abandoned")
			var req *mpi.Request
			if rank < np-1 {
				if req, err = d.Iallreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM); err != nil {
					return err
				}
			}
			if err := w.Barrier(); err != nil {
				return err
			}
			// The late member opens the fold; the leaver acts a
			// moment after it set out.
			moment := time.Duration(attempt%8) * step
			switch {
			case rank == np-1:
				close(opening[attempt])
				err = d.Allreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM)
			case rank == 1 && how == "cancel":
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					<-opening[attempt]
					time.Sleep(moment)
					cancel()
				}()
				_, err = req.WaitCtx(ctx)
				cancel()
			case rank == 0 && how == "revoke":
				<-opening[attempt]
				time.Sleep(moment)
				if err := d.Revoke(); err != nil {
					return err
				}
				_, err = req.Wait()
			default:
				_, err = req.Wait()
			}
			stayed := pv(env, "coll.island_abandoned") == left
			for i, v := range recv {
				if (err == nil || stayed) && v != sum {
					report(fmt.Errorf("attempt %d rank %d: element %d = %v, want %v (%v)", attempt, rank, i, v, sum, err))
					break
				}
			}
			scribble(send, recv)
			if err != nil && stayed {
				landed.Store(int32(attempt + 1))
			}
			if err := w.Barrier(); err != nil {
				return err
			}
			for i, v := range recv {
				if v != -1 {
					report(fmt.Errorf("attempt %d rank %d: element %d written after the call returned (%v)", attempt, rank, i, err))
					break
				}
			}
			if err := d.Free(); err != nil {
				return err
			}
			// Every member reads landed and wrong only past this
			// barrier.
			if err := w.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if p := wrong.Load(); p != nil {
		err = cmp.Or(err, *p)
	}
	if err != nil {
		t.Fatal(err)
	}
	if landed.Load() == 0 {
		t.Fatalf("no %s landed in an open fold in %d attempts", how, attempts)
	}
	t.Logf("a %s landed in an open fold at attempt %d", how, landed.Load())
}

// TestWinLeavesNothingBehind holds a window to the same rule: a window
// is state on its private communicator, never a goroutine, so a job
// that returns with one still open, or whose peer dies mid-epoch,
// leaves nothing behind. In the second row the victim's endpoint closes
// with this epoch's requests queued everywhere, and the survivors fence
// only once it is gone, so that on a medium that reports no loss (in
// process there is no connection to break) their own sends to it are
// what tell them. Every rank settles at the end of its part, where the
// frame pool is audited: an epoch's exchange returns every frame it
// draws, its readers copying out the blocks they keep.
func TestWinLeavesNothingBehind(t *testing.T) {
	for _, device := range []string{"chan", "tcp"} {
		t.Run(device+"/unfreed", func(t *testing.T) {
			err := abandonJob(t, mpi.RunOptions{NP: 2, Device: device}, func(env *mpi.Env, settled func() error) error {
				w := env.CommWorld()
				base := make([]float64, 2)
				win, err := w.CreateWin(base, mpi.DOUBLE)
				if err != nil {
					return err
				}
				if err := win.Put([]float64{float64(w.Rank() + 1)}, 0, 1, mpi.DOUBLE, 1-w.Rank(), w.Rank()); err != nil {
					return err
				}
				if err := win.Fence(); err != nil {
					return err
				}
				if want := float64(2 - w.Rank()); base[1-w.Rank()] != want {
					return fmt.Errorf("rank %d: window %v, want %v in slot %d", w.Rank(), base, want, 1-w.Rank())
				}
				return settled()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Run(device+"/peer-death", func(t *testing.T) {
			const np, victim = 4, 3
			devs := make(chan transport.Device, 1)
			wrap := func(rank int, dev transport.Device) transport.Device {
				if rank == victim {
					devs <- dev
				}
				return dev
			}
			dead := make(chan struct{})
			err := abandonJob(t, mpi.RunOptions{NP: np, Device: device, WrapDevice: wrap}, func(env *mpi.Env, settled func() error) error {
				w := env.CommWorld()
				rank := w.Rank()
				base := make([]float64, np)
				win, err := w.CreateWin(base, mpi.DOUBLE)
				if err != nil {
					return err
				}
				got := make([]float64, np)
				epoch := func(val float64) error {
					for target := 0; target < np; target++ {
						if err := win.Put([]float64{val}, 0, 1, mpi.DOUBLE, target, rank); err != nil {
							return err
						}
					}
					return win.Get(got, 0, np, mpi.DOUBLE, (rank+1)%np, 0)
				}
				if err := epoch(float64(rank)); err != nil {
					return err
				}
				if err := win.Fence(); err != nil {
					return fmt.Errorf("rank %d: healthy epoch: %w", rank, err)
				}
				// A survivor's failed Fence revokes the window's
				// communicator, which would also fail a member still
				// finishing the healthy epoch.
				if err := w.Barrier(); err != nil {
					return err
				}
				if err := epoch(-1); err != nil {
					return err
				}
				if rank == victim {
					(<-devs).Close()
					close(dead)
				} else {
					<-dead
				}
				start := time.Now()
				if err := win.Fence(); err == nil {
					return fmt.Errorf("rank %d: an epoch across a dead peer completed", rank)
				}
				if took := time.Since(start); took > 20*time.Second {
					return fmt.Errorf("rank %d: the failed fence took %v to return", rank, took)
				}
				if err := settled(); err != nil {
					return err
				}
				if rank == victim {
					return errVictimDown
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), errVictimDown.Error()) || strings.Count(err.Error(), "rank ") != 1 {
				t.Fatalf("job error = %v, want only the victim's sentinel", err)
			}
		})
	}
}
