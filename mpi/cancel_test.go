package mpi_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/mpi"
)

// TestCancelledMemberStrandsNobody: one member cancels its call of a
// collective (WaitCtx) while another member is late, and the instance
// ends on every member — none waits for a message the cancelled call
// will not send or receive. Two shapes, each for Bcast, Allreduce and
// Gather, over sealed chan and tcp:
//
//   - late sender: np2, 32,768 DOUBLEs (above the eager limit). Rank 0
//     waits 10 ms and cancels; rank 1 makes its call 100 ms late (the
//     Bcast root; the Gather root is rank 0), and its rendezvous finds
//     nobody to take the payload.
//   - interior member: np4, 8 DOUBLEs. Rank 2 cancels after 1 ms; rank 0
//     makes its call 50 ms late (the Bcast root; the Gather root is rank
//     2). Rank 2 is the Bcast tree's interior member, which owes rank 3
//     the payload it never gets.
//
// The canceller gets its deadline. The late member, and every member
// that was waiting on the instance when it was cancelled (stuck), get
// ErrOther from core.ErrInstanceCancelled; a member that may have
// completed first (a Gather sender) succeeds or gets the same. Every
// member returns within 2 s of the cancel — the others wait under a 2 s
// deadline, which they must not reach — nothing is left unexpected, the
// frame pool balances, and the communicator then carries an Allreduce
// and a Bcast.
func TestCancelledMemberStrandsNobody(t *testing.T) {
	type call func(w *mpi.Intracomm, in, out []float64, root int) (*mpi.Request, error)
	colls := []struct {
		name string
		call call
		// run is the blocking form, the late member's.
		run func(w *mpi.Intracomm, in, out []float64, root int) error
	}{
		{"Bcast", func(w *mpi.Intracomm, in, _ []float64, root int) (*mpi.Request, error) {
			return w.Ibcast(in, 0, len(in), mpi.DOUBLE, root)
		}, func(w *mpi.Intracomm, in, _ []float64, root int) error {
			return w.Bcast(in, 0, len(in), mpi.DOUBLE, root)
		}},
		{"Allreduce", func(w *mpi.Intracomm, in, out []float64, _ int) (*mpi.Request, error) {
			return w.Iallreduce(in, 0, out, 0, len(in), mpi.DOUBLE, mpi.SUM)
		}, func(w *mpi.Intracomm, in, out []float64, _ int) error {
			return w.Allreduce(in, 0, out, 0, len(in), mpi.DOUBLE, mpi.SUM)
		}},
		{"Gather", func(w *mpi.Intracomm, in, out []float64, root int) (*mpi.Request, error) {
			return w.Igather(in, 0, len(in), mpi.DOUBLE, out, 0, len(in), mpi.DOUBLE, root)
		}, func(w *mpi.Intracomm, in, out []float64, root int) error {
			return w.Gather(in, 0, len(in), mpi.DOUBLE, out, 0, len(in), mpi.DOUBLE, root)
		}},
	}
	shapes := []struct {
		name                string
		np, count           int
		canceller, late     int
		cancelAfter, lateBy time.Duration
		roots               map[string]int
		stuck               map[string][]int
	}{
		{"late sender", 2, 32 << 10, 0, 1, 10 * time.Millisecond, 100 * time.Millisecond,
			map[string]int{"Bcast": 1, "Gather": 0}, nil},
		{"interior member", 4, 8, 2, 0, time.Millisecond, 50 * time.Millisecond,
			map[string]int{"Bcast": 0, "Gather": 2}, map[string][]int{"Bcast": {1, 3}, "Allreduce": {1, 3}}},
	}
	devices := []struct {
		name string
		opt  mpi.RunOptions
	}{
		{"sealed chan", mpi.RunOptions{WrapDevice: mpi.NoIsland}},
		{"tcp", mpi.RunOptions{Device: "tcp"}},
	}
	for _, sh := range shapes {
		for _, c := range colls {
			for _, dev := range devices {
				t.Run(fmt.Sprintf("%s/%s/%s", sh.name, c.name, dev.name), func(t *testing.T) {
					opt := dev.opt
					opt.NP = sh.np
					root := sh.roots[c.name]
					stuck := map[int]bool{sh.late: true}
					for _, r := range sh.stuck[c.name] {
						stuck[r] = true
					}
					var mu sync.Mutex
					var cancelled time.Time
					returned := make([]time.Time, sh.np)
					// failed ends every rank's body once they have all
					// settled, when any rank's call went wrong: the ones
					// after it are collective.
					var failed atomic.Bool
					err := abandonJob(t, opt, func(env *mpi.Env, settled func() error) error {
						w := env.CommWorld()
						r := w.Rank()
						in, out := make([]float64, sh.count), make([]float64, sh.np*sh.count)
						if err := w.Barrier(); err != nil {
							return err
						}
						var err error
						switch r {
						case sh.late:
							time.Sleep(sh.lateBy)
							err = c.run(w, in, out, root)
						case sh.canceller:
							ctx, cancel := context.WithTimeout(context.Background(), sh.cancelAfter)
							err = waitCtx(ctx)(c.call(w, in, out, root))
							cancel()
							mu.Lock()
							cancelled = time.Now()
							mu.Unlock()
						default:
							ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
							err = waitCtx(ctx)(c.call(w, in, out, root))
							cancel()
						}
						mu.Lock()
						returned[r] = time.Now()
						mu.Unlock()
						var callErr error
						switch {
						case r == sh.canceller:
							if !errors.Is(err, context.DeadlineExceeded) {
								callErr = fmt.Errorf("rank %d (the canceller): %v, want its deadline", r, err)
							}
						case stuck[r] && !instanceCancelled(err), err != nil && !instanceCancelled(err):
							callErr = fmt.Errorf("rank %d: %v, want ErrOther from the cancelled instance", r, err)
						}
						if callErr != nil {
							failed.Store(true)
						}
						if err := settled(); err != nil || callErr != nil || failed.Load() {
							return cmp.Or(err, callErr)
						}
						mu.Lock()
						since := returned[r].Sub(cancelled)
						mu.Unlock()
						if since > 2*time.Second {
							return fmt.Errorf("rank %d returned %v after the cancel", r, since)
						}

						// The same communicator carries the next collectives.
						sum := []float64{0}
						if err := w.Allreduce([]float64{float64(r + 1)}, 0, sum, 0, 1, mpi.DOUBLE, mpi.SUM); err != nil {
							return fmt.Errorf("rank %d: Allreduce after the cancel: %w", r, err)
						}
						if want := float64(sh.np * (sh.np + 1) / 2); sum[0] != want {
							return fmt.Errorf("rank %d: Allreduce after the cancel = %v, want %v", r, sum[0], want)
						}
						bc := make([]float64, 8)
						if r == 0 {
							bc[7] = 42
						}
						if err := w.Bcast(bc, 0, len(bc), mpi.DOUBLE, 0); err != nil {
							return fmt.Errorf("rank %d: Bcast after the cancel: %w", r, err)
						}
						if bc[7] != 42 {
							return fmt.Errorf("rank %d: Bcast after the cancel = %v, want 42", r, bc[7])
						}
						if n := pv(env, "core.unexpected_depth"); n != 0 {
							return fmt.Errorf("rank %d: %d messages left unexpected", r, n)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
