package mpi_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/transport"
	"gompi/mpi"
)

// The binding runs an open file's and a window's collectives on a
// private duplicate of the communicator they were opened over, which the
// application cannot name and so cannot revoke. The tests below hold the
// two rules that make every collective on such a communicator end on
// every member: Revoke of the parent revokes it, and a collective on it
// that fails in its schedule revokes it before it raises.

// returnsWithin runs call and returns its error, or a "still blocked"
// error once d has passed; the call is then left running.
func returnsWithin(d time.Duration, call func() error) error {
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("still blocked after %v", d)
	}
}

// runWatched is RunWith that fails the test, with every goroutine's
// stack, when the job has not returned within d.
func runWatched(t *testing.T, d time.Duration, opt mpi.RunOptions, fn func(*mpi.Env) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- mpi.RunWith(opt, fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("job hung:\n%s", buf[:runtime.Stack(buf, true)])
		return nil
	}
}

// TestRevokeReachesRuntimeComms: every rank of an np4 job opens a file
// and creates a window over world, then rank 0 revokes world. Rank 3,
// alone, then closes its file and fences its window; no peer enters
// either collective, so both return only because world's revocation
// reached the file's and the window's communicators, and they report
// MPI_ERR_REVOKED. Every other rank's Close fails the same way.
func TestRevokeReachesRuntimeComms(t *testing.T) {
	const np = 4
	for _, device := range []string{"chan", "tcp"} {
		t.Run(device, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "revoke.bin")
			rank3Done := make(chan struct{})
			var ready sync.WaitGroup
			ready.Add(np)
			err := runWatched(t, 30*time.Second, mpi.RunOptions{NP: np, Device: device}, func(env *mpi.Env) error {
				w := env.CommWorld()
				r := w.Rank()
				f, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeRdwr)
				if err != nil {
					return err
				}
				win, err := w.CreateWin(make([]float64, 4), mpi.DOUBLE)
				if err != nil {
					return err
				}
				// Every rank is out of this barrier before rank 0 revokes:
				// a revocation fails whatever is still pending.
				if err := w.Barrier(); err != nil {
					return err
				}
				ready.Done()
				revoked := func(what string, err error) error {
					if mpi.ClassOf(err) != mpi.ErrRevoked {
						return fmt.Errorf("rank %d: %s = %v, want %v", r, what, err, mpi.ErrRevoked)
					}
					return nil
				}
				if r == 0 {
					ready.Wait()
					if err := w.Revoke(); err != nil {
						return err
					}
				} else if err := revoked("world Barrier", w.Barrier()); err != nil {
					return err
				}
				if r != 3 {
					select {
					case <-rank3Done:
					case <-time.After(10 * time.Second):
						return fmt.Errorf("rank %d: rank 3 never finished", r)
					}
					return revoked("File.Close", returnsWithin(3*time.Second, f.Close))
				}
				defer close(rank3Done)
				if err := revoked("File.Close", returnsWithin(3*time.Second, f.Close)); err != nil {
					return err
				}
				return revoked("Win.Fence", returnsWithin(3*time.Second, win.Fence))
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRevokeReachesRuntimeCommsWhileOpening: on each rank one goroutine
// opens and closes files over a communicator, file after file, while
// another revokes that communicator. The open files' communicators are
// registered, revoked and forgotten from two goroutines at once (a race
// here is a -race report), and the opener's loop ends with
// MPI_ERR_REVOKED on every rank rather than waiting on a peer that left.
func TestRevokeReachesRuntimeCommsWhileOpening(t *testing.T) {
	const np = 2
	dir := t.TempDir()
	err := runWatched(t, 30*time.Second, mpi.RunOptions{NP: np}, func(env *mpi.Env) error {
		d, err := env.CommWorld().Dup()
		if err != nil {
			return err
		}
		opened := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			for i := 0; ; i++ {
				f, err := d.OpenFile(filepath.Join(dir, fmt.Sprint(i)), mpi.ModeCreate|mpi.ModeRdwr|mpi.ModeDeleteOnClose)
				if i == 0 {
					close(opened)
				}
				if err == nil {
					err = f.Close()
				}
				if err != nil {
					done <- err
					return
				}
			}
		}()
		<-opened
		if err := d.Revoke(); err != nil {
			return err
		}
		if err := returnsWithin(10*time.Second, func() error { return <-done }); mpi.ClassOf(err) != mpi.ErrRevoked {
			return fmt.Errorf("rank %d: the opener's loop ended with %v, want %v", d.Rank(), err, mpi.ErrRevoked)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sendCounter counts the frames a rank's device is asked to deliver,
// charging the same calls transport.Faulty's KillAfterSends does.
type sendCounter struct {
	transport.Device
	n atomic.Int64
}

func (c *sendCounter) Send(dst int, frame []byte) error {
	c.n.Add(1)
	return c.Device.Send(dst, frame)
}

func (c *sendCounter) Sendv(dst int, hdr, payload []byte, recycle bool) error {
	c.n.Add(1)
	return c.Device.Sendv(dst, hdr, payload, recycle)
}

func (c *sendCounter) SendvLent(dst int, hdr, payload []byte, loan transport.Loan) error {
	c.n.Add(1)
	return c.Device.SendvLent(dst, hdr, payload, loan)
}

// TestFileCloseAfterPeerDeathStrandsNobody: np4 over tcp, every rank
// opens a file, and then one rank — each in turn — dies through faultOn,
// either before the survivors' Close (its endpoint dies at its own
// Close's first frame, and the survivors call Close after that) or
// mid-Close (after its first Close frame is delivered). Every survivor's
// Close must return within a bound, with MPI_ERR_PROC_FAILED,
// MPI_ERR_REVOKED or success (a survivor whose barrier had every frame
// it needed), whether or not the survivors that failed revoke world. A
// calibration run counts each rank's frames up to its Close, which is
// where the kill points sit.
func TestFileCloseAfterPeerDeathStrandsNobody(t *testing.T) {
	const np = 4
	var counters [np]*sendCounter
	before := make([]int64, np)
	path := filepath.Join(t.TempDir(), "close.bin")
	err := runWatched(t, 30*time.Second, mpi.RunOptions{NP: np, Device: "tcp",
		WrapDevice: func(rank int, dev transport.Device) transport.Device {
			counters[rank] = &sendCounter{Device: dev}
			return counters[rank]
		}}, func(env *mpi.Env) error {
		w := env.CommWorld()
		f, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeRdwr)
		if err != nil {
			return err
		}
		before[w.Rank()] = counters[w.Rank()].n.Load()
		return f.Close()
	})
	if err != nil {
		t.Fatalf("calibration: %v", err)
	}

	for victim := range np {
		for _, mid := range []bool{false, true} {
			for _, revoke := range []bool{false, true} {
				name := fmt.Sprintf("victim%d/before", victim)
				killAfter := int(before[victim])
				if mid {
					name, killAfter = fmt.Sprintf("victim%d/mid", victim), killAfter+1
				}
				if revoke {
					name += "/revoke"
				}
				t.Run(name, func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "close.bin")
					dead := make(chan struct{})
					var mu sync.Mutex
					classes := map[int]string{}
					err := runWatched(t, 60*time.Second, mpi.RunOptions{NP: np, Device: "tcp", WrapDevice: faultOn(victim, killAfter)}, func(env *mpi.Env) error {
						w := env.CommWorld()
						r := w.Rank()
						f, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeRdwr)
						if err != nil {
							return err
						}
						if r == victim {
							_ = returnsWithin(10*time.Second, f.Close)
							close(dead)
							return errVictimDown
						}
						if !mid {
							<-dead
						}
						cerr := returnsWithin(10*time.Second, f.Close)
						mu.Lock()
						classes[r] = mpi.ClassOf(cerr).String()
						mu.Unlock()
						switch cls := mpi.ClassOf(cerr); {
						case cerr == nil:
						case cls != mpi.ErrProcFailed && cls != mpi.ErrRevoked:
							return fmt.Errorf("rank %d: Close = %v, want success, %v or %v", r, cerr, mpi.ErrProcFailed, mpi.ErrRevoked)
						case revoke:
							return w.Revoke()
						}
						return nil
					})
					if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("rank %d: %v", victim, errVictimDown)) || strings.Count(err.Error(), "rank ") != 1 {
						t.Fatalf("job error = %v, want only the victim's sentinel", err)
					}
					t.Logf("survivors' Close: %v", classes)
				})
			}
		}
	}
}
