package mpi_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"gompi/mpi"
)

// run2 is a 2-rank SM-mode helper.
func run2(t *testing.T, fn func(env *mpi.Env) error) {
	t.Helper()
	if err := mpi.Run(2, fn); err != nil {
		t.Fatal(err)
	}
}

func TestSendModesDeliverData(t *testing.T) {
	kinds := []string{"send", "ssend", "rsend", "isend", "issend"}
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		for tag, kind := range kinds {
			if w.Rank() == 0 {
				buf := []int32{int32(tag * 100)}
				var err error
				switch kind {
				case "send":
					err = w.Send(buf, 0, 1, mpi.INT, 1, tag)
				case "ssend":
					err = w.Ssend(buf, 0, 1, mpi.INT, 1, tag)
				case "rsend":
					// Receiver side pre-posts all receives below.
					err = w.Rsend(buf, 0, 1, mpi.INT, 1, tag)
				case "isend":
					var req *mpi.Request
					if req, err = w.Isend(buf, 0, 1, mpi.INT, 1, tag); err == nil {
						_, err = req.Wait()
					}
				case "issend":
					var req *mpi.Request
					if req, err = w.Issend(buf, 0, 1, mpi.INT, 1, tag); err == nil {
						_, err = req.Wait()
					}
				}
				if err != nil {
					return err
				}
			} else {
				in := []int32{-1}
				st, err := w.Recv(in, 0, 1, mpi.INT, 0, tag)
				if err != nil {
					return err
				}
				if in[0] != int32(tag*100) || st.Tag != tag {
					t.Errorf("%s: got %d tag %d", kind, in[0], st.Tag)
				}
			}
		}
		return nil
	})
}

func TestLargeMessagesCrossEagerThreshold(t *testing.T) {
	for _, eager := range []int{-1, 64, 1 << 20} {
		err := mpi.RunWith(mpi.RunOptions{NP: 2, EagerLimit: eager}, func(env *mpi.Env) error {
			w := env.CommWorld()
			const n = 100_000
			if w.Rank() == 0 {
				buf := make([]float64, n)
				for i := range buf {
					buf[i] = float64(i) * 0.5
				}
				return w.Send(buf, 0, n, mpi.DOUBLE, 1, 1)
			}
			in := make([]float64, n)
			st, err := w.Recv(in, 0, n, mpi.DOUBLE, 0, 1)
			if err != nil {
				return err
			}
			if st.GetCount(mpi.DOUBLE) != n {
				t.Errorf("eager=%d: count %d", eager, st.GetCount(mpi.DOUBLE))
			}
			if in[n-1] != float64(n-1)*0.5 {
				t.Errorf("eager=%d: tail %v", eager, in[n-1])
			}
			return nil
		})
		if err != nil {
			t.Fatalf("eager=%d: %v", eager, err)
		}
	}
}

func TestProcNullOperations(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		buf := []int32{1}
		if err := w.Send(buf, 0, 1, mpi.INT, mpi.ProcNull, 0); err != nil {
			return err
		}
		st, err := w.Recv(buf, 0, 1, mpi.INT, mpi.ProcNull, 0)
		if err != nil {
			return err
		}
		if st.Source != mpi.ProcNull || st.GetCount(mpi.INT) != 0 {
			t.Errorf("null recv status: %+v count=%d", st, st.GetCount(mpi.INT))
		}
		req, err := w.Isend(buf, 0, 1, mpi.INT, mpi.ProcNull, 0)
		if err != nil {
			return err
		}
		if _, done, _ := req.Test(); !done {
			t.Error("send to ProcNull must complete immediately")
		}
		return nil
	})
}

func TestValidationErrors(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		buf := []int32{1}
		cases := []struct {
			err  error
			want mpi.ErrClass
			what string
		}{}
		err := w.Send(buf, 0, 1, mpi.INT, 7, 0)
		cases = append(cases, struct {
			err  error
			want mpi.ErrClass
			what string
		}{err, mpi.ErrRank, "bad dest"})
		err = w.Send(buf, 0, 1, mpi.INT, 0, -3)
		cases = append(cases, struct {
			err  error
			want mpi.ErrClass
			what string
		}{err, mpi.ErrTag, "negative tag"})
		err = w.Send(buf, 0, 1, mpi.DOUBLE, 0, 0)
		cases = append(cases, struct {
			err  error
			want mpi.ErrClass
			what string
		}{err, mpi.ErrType, "class mismatch"})
		err = w.Send(buf, 0, 5, mpi.INT, 0, 0)
		cases = append(cases, struct {
			err  error
			want mpi.ErrClass
			what string
		}{err, mpi.ErrBuffer, "overrun"})
		err = w.Send(buf, 0, 1, mpi.UB, 0, 0)
		cases = append(cases, struct {
			err  error
			want mpi.ErrClass
			what string
		}{err, mpi.ErrType, "marker type"})
		uncommitted, _ := mpi.TypeContiguous(2, mpi.INT)
		err = w.Send(buf, 0, 0, uncommitted, 0, 0)
		cases = append(cases, struct {
			err  error
			want mpi.ErrClass
			what string
		}{err, mpi.ErrType, "uncommitted"})
		_, err = w.Recv(buf, 0, 1, mpi.INT, -9, 0)
		cases = append(cases, struct {
			err  error
			want mpi.ErrClass
			what string
		}{err, mpi.ErrRank, "bad source"})
		for _, c := range cases {
			if mpi.ClassOf(c.err) != c.want {
				t.Errorf("%s: got %v (class %v), want %v", c.what, c.err, mpi.ClassOf(c.err), c.want)
			}
		}
		return nil
	})
}

func TestTruncationError(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			buf := []int32{1, 2, 3, 4, 5}
			return w.Send(buf, 0, 5, mpi.INT, 1, 1)
		}
		in := make([]int32, 3)
		st, err := w.Recv(in, 0, 3, mpi.INT, 0, 1)
		if mpi.ClassOf(err) != mpi.ErrTruncate {
			t.Errorf("truncation: got %v", err)
		}
		if st == nil || st.GetElements(mpi.INT) != 3 {
			t.Errorf("truncated status: %+v", st)
		}
		if in[0] != 1 || in[2] != 3 {
			t.Errorf("truncated prefix: %v", in)
		}
		return nil
	})
}

func TestIbsendAndBufferErrors(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			buf := make([]byte, 128)
			// No buffer attached yet.
			if err := w.Bsend(buf, 0, 128, mpi.BYTE, 1, 1); mpi.ClassOf(err) != mpi.ErrBuffer {
				t.Errorf("bsend without buffer: %v", err)
			}
			if err := env.BufferAttach(64); err != nil {
				return err
			}
			// Too big for the pool.
			if err := w.Bsend(buf, 0, 128, mpi.BYTE, 1, 1); mpi.ClassOf(err) != mpi.ErrBuffer {
				t.Errorf("oversized bsend: %v", err)
			}
			// Double attach.
			if err := env.BufferAttach(64); mpi.ClassOf(err) != mpi.ErrBuffer {
				t.Errorf("double attach: %v", err)
			}
			if err := w.Bsend(buf, 0, 32, mpi.BYTE, 1, 2); err != nil {
				return err
			}
			if _, err := env.BufferDetach(); err != nil {
				return err
			}
			// Detach again.
			if _, err := env.BufferDetach(); mpi.ClassOf(err) != mpi.ErrBuffer {
				t.Errorf("double detach: %v", err)
			}
			return w.Barrier()
		}
		in := make([]byte, 32)
		if _, err := w.Recv(in, 0, 32, mpi.BYTE, 0, 2); err != nil {
			return err
		}
		return w.Barrier()
	})
}

func TestIprobePolling(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			time.Sleep(20 * time.Millisecond)
			return w.Send([]int32{5}, 0, 1, mpi.INT, 1, 3)
		}
		st, err := w.Iprobe(0, 3)
		if err != nil {
			return err
		}
		if st != nil {
			t.Error("Iprobe saw a message before it was sent")
		}
		deadline := time.Now().Add(5 * time.Second)
		for st == nil && time.Now().Before(deadline) {
			if st, err = w.Iprobe(0, 3); err != nil {
				return err
			}
		}
		if st == nil {
			t.Error("Iprobe never saw the message")
			return nil
		}
		in := []int32{0}
		_, err = w.Recv(in, 0, 1, mpi.INT, 0, 3)
		return err
	})
}

func TestCancelReceive(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 1 {
			in := []int32{0}
			req, err := w.Irecv(in, 0, 1, mpi.INT, 0, 77)
			if err != nil {
				return err
			}
			if err := req.Cancel(); err != nil {
				return err
			}
			st, err := req.Wait()
			if err != nil {
				return err
			}
			if !st.TestCancelled() {
				t.Error("cancelled receive not marked")
			}
		}
		return w.Barrier()
	})
}

func TestWaitSomeTestSome(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			if err := w.Barrier(); err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				if err := w.Send([]int32{int32(i)}, 0, 1, mpi.INT, 1, 10+i); err != nil {
					return err
				}
			}
			return nil
		}
		bufs := make([][]int32, 3)
		reqs := make([]*mpi.Request, 3)
		for i := range reqs {
			bufs[i] = []int32{-1}
			var err error
			if reqs[i], err = w.Irecv(bufs[i], 0, 1, mpi.INT, 0, 10+i); err != nil {
				return err
			}
		}
		// Nothing has been sent yet.
		some, err := mpi.TestSome(reqs)
		if err != nil {
			return err
		}
		if len(some) != 0 {
			t.Errorf("TestSome before sends: %d completions", len(some))
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		seen := map[int]bool{}
		for len(seen) < 3 {
			sts, err := mpi.WaitSome(reqs)
			if err != nil {
				return err
			}
			if len(sts) == 0 {
				t.Error("WaitSome returned empty")
				break
			}
			for _, st := range sts {
				if seen[st.Index] {
					t.Errorf("WaitSome repeated index %d", st.Index)
				}
				seen[st.Index] = true
				reqs[st.Index].Free()
			}
		}
		return nil
	})
}

func TestTestAllAndFreedRequests(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			for i := 0; i < 2; i++ {
				if err := w.Send([]int32{9}, 0, 1, mpi.INT, 1, i); err != nil {
					return err
				}
			}
			return nil
		}
		a := []int32{0}
		b := []int32{0}
		r1, err := w.Irecv(a, 0, 1, mpi.INT, 0, 0)
		if err != nil {
			return err
		}
		r2, err := w.Irecv(b, 0, 1, mpi.INT, 0, 1)
		if err != nil {
			return err
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			sts, done, err := mpi.TestAll([]*mpi.Request{r1, r2})
			if err != nil {
				return err
			}
			if done {
				if len(sts) != 2 {
					t.Errorf("TestAll returned %d statuses", len(sts))
				}
				break
			}
			if time.Now().After(deadline) {
				t.Error("TestAll never completed")
				break
			}
		}
		// Freed/inactive requests behave as null.
		r1.Free()
		st, err := r1.Wait()
		if err != nil || st.Source != mpi.ProcNull {
			t.Errorf("wait on freed request: %+v %v", st, err)
		}
		if !r1.IsNull() {
			t.Error("freed request not null")
		}
		return nil
	})
}

// TestRequestSize: Irecv allocates one Request per call, so the struct
// must stay inside the 128-byte allocator class.
func TestRequestSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(mpi.Request{}); n > 128 {
		t.Fatalf("unsafe.Sizeof(mpi.Request{}) = %d, want <= 128", n)
	}
}

// TestMixedRequestSet: one set holding a collective and a receive
// completes through WaitAny, TestAny and TestAll alike. The collective's
// peer enters late, so the receive completes first; the collective's
// buffer is filled exactly once, by whichever call reaps it first.
func TestMixedRequestSet(t *testing.T) {
	late := make(chan struct{})
	admitLate := sync.OnceFunc(func() { close(late) })
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 1 {
			if err := w.Send([]int32{7}, 0, 1, mpi.INT, 0, 5); err != nil {
				return err
			}
			<-late
			return w.Bcast([]float64{42}, 0, 1, mpi.DOUBLE, 1)
		}
		defer admitLate() // never strand the late peer, even on an early return
		bc := []float64{0}
		in := []int32{0}
		coll, err := w.Ibcast(bc, 0, 1, mpi.DOUBLE, 1)
		if err != nil {
			return err
		}
		recv, err := w.Irecv(in, 0, 1, mpi.INT, 1, 5)
		if err != nil {
			return err
		}
		reqs := []*mpi.Request{coll, recv}
		if _, done, err := mpi.TestAll(reqs); done || err != nil {
			t.Errorf("TestAll before the late peer: done=%v err=%v", done, err)
		}
		st, err := mpi.WaitAny(reqs)
		if err != nil {
			return err
		}
		if st.Index != 1 || in[0] != 7 {
			t.Errorf("first WaitAny: index %d, received %d; want the receive (1) with 7", st.Index, in[0])
		}
		if st, done, _ := mpi.TestAny(reqs); !done || st.Index != 1 {
			t.Errorf("TestAny with the receive done: done=%v st=%+v, want index 1", done, st)
		}
		recv.Free()
		if _, done, _ := mpi.TestAny(reqs); done {
			t.Error("TestAny reported the collective done before its peer entered")
		}
		admitLate()
		if st, err = mpi.WaitAny(reqs); err != nil {
			return err
		}
		if st.Index != 0 || bc[0] != 42 {
			t.Errorf("second WaitAny: index %d, bcast %v; want the collective (0) with 42", st.Index, bc[0])
		}
		bc[0] = -1 // a second deposit would overwrite this
		sts, done, err := mpi.TestAll(reqs)
		if !done || err != nil || len(sts) != 2 || sts[0].Index != 0 || sts[1].Index != 1 {
			t.Errorf("TestAll after both: done=%v err=%v sts=%v", done, err, sts)
		}
		if _, err := coll.Wait(); err != nil || bc[0] != -1 {
			t.Errorf("collective re-deposited: bcast %v err %v, want -1 untouched", bc[0], err)
		}
		return nil
	})
}

func TestPersistentBsendAndSsendInit(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			if err := env.BufferAttach(1024); err != nil {
				return err
			}
			buf := []int32{0}
			pb, err := w.BsendInit(buf, 0, 1, mpi.INT, 1, 1)
			if err != nil {
				return err
			}
			ps, err := w.SsendInit(buf, 0, 1, mpi.INT, 1, 2)
			if err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				buf[0] = int32(i)
				if err := mpi.StartAll([]*mpi.PersistentRequest{pb, ps}); err != nil {
					return err
				}
				if _, err := mpi.WaitAll([]*mpi.Request{pb.Request, ps.Request}); err != nil {
					return err
				}
			}
			if _, err := env.BufferDetach(); err != nil {
				return err
			}
			return nil
		}
		in := []int32{0}
		for i := 0; i < 3; i++ {
			if _, err := w.Recv(in, 0, 1, mpi.INT, 0, 1); err != nil {
				return err
			}
			if _, err := w.Recv(in, 0, 1, mpi.INT, 0, 2); err != nil {
				return err
			}
			if in[0] != int32(i) {
				t.Errorf("persistent iteration %d: got %d", i, in[0])
			}
		}
		return nil
	})
}

func TestRunPanicIsReported(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		if env.Rank() == 1 {
			panic("deliberate test panic")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deliberate test panic") {
		t.Fatalf("panic not propagated: %v", err)
	}
}

func TestRunErrorAggregation(t *testing.T) {
	err := mpi.Run(3, func(env *mpi.Env) error {
		if env.Rank() == 2 {
			return errFromRank2
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2") ||
		!strings.Contains(err.Error(), errFromRank2.Error()) {
		t.Fatalf("error not attributed to rank 2: %v", err)
	}
}

var errFromRank2 = &mpi.Error{Class: mpi.ErrOther, Msg: "synthetic failure"}

// TestSendrecvFailedSendLeavesNoReceive: Sendrecv and SendrecvReplace
// post their receive before they send. When the send fails, the call
// returns its error with that receive withdrawn: a later message from a
// live rank leaves the caller's buffer untouched and waits for a fresh
// Recv.
func TestSendrecvFailedSendLeavesNoReceive(t *testing.T) {
	// lateMessage has rank live send 42 under tag 7, then a marker under
	// tag 8. Pairs do not overtake, so once the marker is received the
	// tag-7 message has arrived too; it must still be unreceived.
	lateMessage := func(w *mpi.Intracomm, live int, buf []int32) error {
		if err := w.Send([]int32{1}, 0, 1, mpi.INT, live, 9); err != nil {
			return fmt.Errorf("go-ahead: %w", err)
		}
		if _, err := w.Recv(make([]int32, 1), 0, 1, mpi.INT, live, 8); err != nil {
			return fmt.Errorf("marker: %w", err)
		}
		if buf[0] != -1 {
			return fmt.Errorf("a message written into the buffer after the call returned: %d", buf[0])
		}
		if st, err := w.Iprobe(live, 7); err != nil || st == nil {
			return fmt.Errorf("late message not pending after the call returned: %v, %v", st, err)
		}
		got := []int32{0}
		if _, err := w.Recv(got, 0, 1, mpi.INT, live, 7); err != nil || got[0] != 42 {
			return fmt.Errorf("fresh Recv: %d, %v", got[0], err)
		}
		return nil
	}
	sendLate := func(w *mpi.Intracomm, to int) error {
		if _, err := w.Recv(make([]int32, 1), 0, 1, mpi.INT, to, 9); err != nil {
			return err
		}
		if err := w.Send([]int32{42}, 0, 1, mpi.INT, to, 7); err != nil {
			return err
		}
		return w.Send([]int32{0}, 0, 1, mpi.INT, to, 8)
	}

	t.Run("Sendrecv to an out-of-range rank", func(t *testing.T) {
		run2(t, func(env *mpi.Env) error {
			w := env.CommWorld()
			if w.Rank() == 1 {
				return sendLate(w, 0)
			}
			buf := []int32{-1}
			_, err := w.Sendrecv([]int32{5}, 0, 1, mpi.INT, w.Size(), 3, buf, 0, 1, mpi.INT, 1, 7)
			if mpi.ClassOf(err) != mpi.ErrRank {
				return fmt.Errorf("Sendrecv to rank %d: %v, want MPI_ERR_RANK", w.Size(), err)
			}
			return lateMessage(w, 1, buf)
		})
	})

	t.Run("SendrecvReplace to a lost rank", func(t *testing.T) {
		const victim, live = 1, 2
		err := mpi.RunWith(mpi.RunOptions{NP: 3, Device: "tcp", WrapDevice: faultOn(victim, 1)}, func(env *mpi.Env) error {
			w := env.CommWorld()
			switch w.Rank() {
			case victim:
				// The first frame is delivered; the second kills the endpoint.
				w.Send([]int32{7}, 0, 1, mpi.INT, 0, 1) //nolint:errcheck
				w.Send([]int32{8}, 0, 1, mpi.INT, 0, 2) //nolint:errcheck
				return errVictimDown
			case live:
				return sendLate(w, 0)
			}
			if _, err := w.Recv(make([]int32, 1), 0, 1, mpi.INT, victim, 1); err != nil {
				return fmt.Errorf("recv before the loss: %w", err)
			}
			// The loss is known once a receive from the victim fails.
			if _, err := w.Recv(make([]int32, 1), 0, 1, mpi.INT, victim, 2); mpi.ClassOf(err) != mpi.ErrProcFailed {
				return fmt.Errorf("recv after the loss: %v, want MPI_ERR_PROC_FAILED", err)
			}
			buf := []int32{-1}
			if _, err := w.SendrecvReplace(buf, 0, 1, mpi.INT, victim, 3, live, 7); mpi.ClassOf(err) != mpi.ErrProcFailed {
				return fmt.Errorf("SendrecvReplace to the lost rank: %v, want MPI_ERR_PROC_FAILED", err)
			}
			return lateMessage(w, live, buf)
		})
		if err == nil || err.Error() != fmt.Sprintf("rank %d: %v", victim, errVictimDown) {
			t.Fatalf("job error = %v, want only the victim's sentinel", err)
		}
	})
}
