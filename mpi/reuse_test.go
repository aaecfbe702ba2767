package mpi_test

import (
	"fmt"
	"testing"
	"time"

	"gompi/mpi"
)

// reuseEager is the jobs' eager limit in bytes: the blocks of
// reuseCounts doubles fall on both sides of it.
const reuseEager = 512

var reuseCounts = []int{4, 96}

// reuseMedia are the three ways a job's ranks reach each other: sealed
// chan (every collective on the message path), chan with islands, and
// loopback tcp.
var reuseMedia = []struct {
	name string
	opt  mpi.RunOptions
}{
	{"sealed", mpi.RunOptions{WrapDevice: mpi.NoIsland}},
	{"island", mpi.RunOptions{}},
	{"tcp", mpi.RunOptions{Device: "tcp"}},
}

// TestBufferReusableOnReturn: a blocking call's buffers are the
// caller's again when it returns (MPI's rule). Every rank overwrites
// every buffer it passed to a blocking collective or point-to-point
// call as soon as the call returns, and every reader checks what it
// got. A send that still reads the caller's memory after returning (a
// view the schedule forwards by reference, a loan not yet home) shows
// as an overwritten element at a reader; a receive still writing the
// caller's memory shows when the next call finds its receive buffer
// changed. Over sealed chan, islands and tcp, at np 2–5, from every
// root, with blocks on both sides of the eager limit.
func TestBufferReusableOnReturn(t *testing.T) {
	for _, m := range reuseMedia {
		for np := 2; np <= 5; np++ {
			opt := m.opt
			opt.NP, opt.EagerLimit = np, reuseEager
			t.Run(fmt.Sprintf("%s/np%d", m.name, np), func(t *testing.T) {
				done := make(chan error, 1)
				go func() { done <- mpi.RunWith(opt, reuseJob) }()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(60 * time.Second):
					t.Fatal("the job did not return within 60s")
				}
			})
		}
	}
}

// reuser runs one rank's calls. op numbers the operation, the same on
// every rank; every value a rank contributes is reuseVal(op, rank,
// index). A wrong value does not end the rank's part, which would leave
// the others waiting in the next collective: bad counts the calls that
// read one, and first describes the first.
type reuser struct {
	np, me, op int
	send, recv []float64
	got        []float64
	bad        int
	first      error
}

// fault records a call that read a wrong value.
func (u *reuser) fault(err error) {
	if u.bad++; u.first == nil {
		u.first = err
	}
}

func reuseVal(op, owner, i int) float64 { return float64(op)*1e6 + float64(owner)*1e4 + float64(i) }

// do makes one blocking call: it fills send with this rank's values,
// runs call, takes a copy of recv and overwrites both buffers at once,
// then checks the copy against want (whose ok is false where anything
// may stand). recv must still hold the overwrite when do starts.
func (u *reuser) do(name string, call func() error, want func(i int) (float64, bool)) error {
	for i, v := range u.recv {
		if v != -1 {
			u.fault(fmt.Errorf("rank %d: before %s (op %d): receive element %d = %v, written after the last call returned", u.me, name, u.op, i, v))
			scribble(u.recv)
			break
		}
	}
	for i := range u.send {
		u.send[i] = reuseVal(u.op, u.me, i)
	}
	if err := call(); err != nil {
		return fmt.Errorf("rank %d: %s (op %d): %w", u.me, name, u.op, err)
	}
	copy(u.got, u.recv)
	scribble(u.send, u.recv)
	for i, g := range u.got {
		if w, ok := want(i); ok && g != w {
			u.fault(fmt.Errorf("rank %d: %s (op %d): element %d = %v, want %v", u.me, name, u.op, i, g, w))
			break
		}
	}
	return nil
}

// unwritten is want for a rank a call delivers nothing to.
func unwritten(int) (float64, bool) { return -1, true }

// blocksOf is want for a buffer of np blocks of n values at a stride of
// stride elements, block r holding at(r, j) and the gaps nothing.
func (u *reuser) blocksOf(n, stride int, at func(r, j int) float64) func(int) (float64, bool) {
	return func(i int) (float64, bool) {
		r, j := i/stride, i%stride
		if r >= u.np || j >= n {
			return -1, true
		}
		return at(r, j), true
	}
}

// sum is the SUM of val over the owners in [lo, hi) at index i.
func (u *reuser) sum(lo, hi, i int) float64 {
	s := 0.0
	for r := lo; r < hi; r++ {
		s += reuseVal(u.op, r, i)
	}
	return s
}

func reuseJob(env *mpi.Env) error {
	w := env.CommWorld()
	np, me := w.Size(), w.Rank()
	size := np * (reuseCounts[len(reuseCounts)-1] + 1)
	u := &reuser{np: np, me: me, send: make([]float64, size), recv: make([]float64, size), got: make([]float64, size)}
	scribble(u.recv)
	if err := env.BufferAttach(1 << 16); err != nil {
		return err
	}
	d := mpi.DOUBLE
	for _, n := range reuseCounts {
		counts, displs, gapped := make([]int, np), make([]int, np), make([]int, np)
		for r := range counts {
			counts[r], displs[r], gapped[r] = n, r*(n+1), n
		}
		type call struct {
			name string
			run  func() error
			want func(i int) (float64, bool)
		}
		var calls []call
		for root := 0; root < np; root++ {
			root := root
			bcast := u.send
			wantB := unwritten
			if me != root {
				bcast = u.recv
				wantB = func(i int) (float64, bool) {
					if i >= n {
						return -1, true
					}
					return reuseVal(u.op, root, i), true
				}
			}
			atRoot := func(want func(int) (float64, bool)) func(int) (float64, bool) {
				if me != root {
					return unwritten
				}
				return want
			}
			mine := func(i int) (float64, bool) {
				if i >= n {
					return -1, true
				}
				return reuseVal(u.op, root, me*n+i), true
			}
			mineV := func(i int) (float64, bool) {
				if i >= n {
					return -1, true
				}
				return reuseVal(u.op, root, me*(n+1)+i), true
			}
			calls = append(calls,
				call{"Bcast", func() error { return w.Bcast(bcast, 0, n, d, root) }, wantB},
				call{"Gather", func() error { return w.Gather(u.send, 0, n, d, u.recv, 0, n, d, root) },
					atRoot(u.blocksOf(n, n, func(r, j int) float64 { return reuseVal(u.op, r, j) }))},
				call{"Gatherv", func() error { return w.Gatherv(u.send, 0, n, d, u.recv, 0, gapped, displs, d, root) },
					atRoot(u.blocksOf(n, n+1, func(r, j int) float64 { return reuseVal(u.op, r, j) }))},
				call{"Scatter", func() error { return w.Scatter(u.send, 0, n, d, u.recv, 0, n, d, root) }, mine},
				call{"Scatterv", func() error { return w.Scatterv(u.send, 0, gapped, displs, d, u.recv, 0, n, d, root) }, mineV},
				call{"Reduce", func() error { return w.Reduce(u.send, 0, u.recv, 0, n, d, mpi.SUM, root) },
					atRoot(func(i int) (float64, bool) {
						if i >= n {
							return -1, true
						}
						return u.sum(0, np, i), true
					})},
			)
		}
		fold := func(lo, hi int) func(int) (float64, bool) {
			return func(i int) (float64, bool) {
				if i >= n {
					return -1, true
				}
				return u.sum(lo, hi, i), true
			}
		}
		exscan := fold(0, me)
		if me == 0 {
			exscan = unwritten
		}
		calls = append(calls,
			call{"Allgather", func() error { return w.Allgather(u.send, 0, n, d, u.recv, 0, n, d) },
				u.blocksOf(n, n, func(r, j int) float64 { return reuseVal(u.op, r, j) })},
			call{"Allgatherv", func() error { return w.Allgatherv(u.send, 0, n, d, u.recv, 0, gapped, displs, d) },
				u.blocksOf(n, n+1, func(r, j int) float64 { return reuseVal(u.op, r, j) })},
			call{"Alltoall", func() error { return w.Alltoall(u.send, 0, n, d, u.recv, 0, n, d) },
				u.blocksOf(n, n, func(r, j int) float64 { return reuseVal(u.op, r, me*n+j) })},
			call{"Alltoallv", func() error { return w.Alltoallv(u.send, 0, gapped, displs, d, u.recv, 0, gapped, displs, d) },
				u.blocksOf(n, n+1, func(r, j int) float64 { return reuseVal(u.op, r, me*(n+1)+j) })},
			call{"Allreduce", func() error { return w.Allreduce(u.send, 0, u.recv, 0, n, d, mpi.SUM) }, fold(0, np)},
			call{"ReduceScatter", func() error { return w.ReduceScatter(u.send, 0, u.recv, 0, counts, d, mpi.SUM) },
				func(i int) (float64, bool) {
					if i >= n {
						return -1, true
					}
					return u.sum(0, np, me*n+i), true
				}},
			call{"Scan", func() error { return w.Scan(u.send, 0, u.recv, 0, n, d, mpi.SUM) }, fold(0, me+1)},
			call{"Exscan", func() error { return w.Exscan(u.send, 0, u.recv, 0, n, d, mpi.SUM) }, exscan},
		)

		// Point to point, around the ring: rank 0 sends first and every
		// other rank receives first, so each blocking send has its
		// reader on the way. The sender overwrites its buffer as soon as
		// its send returns; the receiver then checks.
		right, left := (me+1)%np, (me-1+np)%np
		fromLeft := func(i int) (float64, bool) {
			if i >= n {
				return -1, true
			}
			return reuseVal(u.op, left, i), true
		}
		recv := call{"Recv", func() error { _, err := w.Recv(u.recv, 0, n, d, left, 7); return err }, fromLeft}
		for _, send := range []call{
			{"Send", func() error { return w.Send(u.send, 0, n, d, right, 7) }, unwritten},
			{"Ssend", func() error { return w.Ssend(u.send, 0, n, d, right, 7) }, unwritten},
			{"Rsend", func() error { return w.Rsend(u.send, 0, n, d, right, 7) }, unwritten},
			{"Bsend", func() error { return w.Bsend(u.send, 0, n, d, right, 7) }, unwritten},
		} {
			send := send
			pair := []call{send, recv}
			if me != 0 {
				pair = []call{recv, send}
			}
			calls = append(calls, call{send.name, func() error {
				for _, c := range pair {
					if err := u.do(c.name, c.run, c.want); err != nil {
						return err
					}
				}
				return nil
			}, nil})
		}
		calls = append(calls,
			call{"Sendrecv", func() error {
				_, err := w.Sendrecv(u.send, 0, n, d, right, 8, u.recv, 0, n, d, left, 8)
				return err
			}, fromLeft},
			call{"SendrecvReplace", func() error {
				_, err := w.SendrecvReplace(u.send, 0, n, d, right, 9, left, 9)
				copy(u.recv[:n], u.send[:n])
				return err
			}, fromLeft},
		)

		for it := 0; it < 10; it++ {
			for _, c := range calls {
				u.op++
				var err error
				if c.want == nil {
					err = c.run() // a pair of calls, each its own do
				} else {
					err = u.do(c.name, c.run, c.want)
				}
				if err != nil {
					return fmt.Errorf("%d doubles: %w", n, err)
				}
			}
		}
	}
	if _, err := env.BufferDetach(); err != nil {
		return err
	}
	if u.bad > 0 {
		return fmt.Errorf("%d calls read a wrong value; the first: %w", u.bad, u.first)
	}
	return nil
}
