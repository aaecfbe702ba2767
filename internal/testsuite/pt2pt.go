package testsuite

import (
	"gompi/mpi"
)

// The point-to-point programs (12).

func init() {
	register(Program{Name: "sendrecv", Category: CatPt2pt, NP: 4, Run: progSendRecv})
	register(Program{Name: "isend", Category: CatPt2pt, NP: 4, Run: progIsend})
	register(Program{Name: "ssend", Category: CatPt2pt, NP: 2, Run: progSsend})
	register(Program{Name: "bsend", Category: CatPt2pt, NP: 2, Run: progBsend})
	register(Program{Name: "rsend", Category: CatPt2pt, NP: 2, Run: progRsend})
	register(Program{Name: "anysrc", Category: CatPt2pt, NP: 4, Run: progAnySource})
	register(Program{Name: "anytag", Category: CatPt2pt, NP: 2, Run: progAnyTag})
	register(Program{Name: "ordering", Category: CatPt2pt, NP: 2, Run: progOrdering})
	register(Program{Name: "probe", Category: CatPt2pt, NP: 2, Run: progProbe})
	register(Program{Name: "persist", Category: CatPt2pt, NP: 2, Run: progPersist})
	register(Program{Name: "waitany", Category: CatPt2pt, NP: 4, Run: progWaitAny})
	register(Program{Name: "sendrecvrep", Category: CatPt2pt, NP: 4, Run: progSendrecvReplace})
}

// progSendRecv: every rank sends its rank to every other rank and checks
// what it receives.
func progSendRecv(env *mpi.Env) error {
	w := env.CommWorld()
	rank, size := w.Rank(), w.Size()
	for peer := 0; peer < size; peer++ {
		if peer == rank {
			continue
		}
		out := []int32{int32(rank)}
		in := []int32{-1}
		if _, err := w.Sendrecv(out, 0, 1, mpi.INT, peer, 3,
			in, 0, 1, mpi.INT, peer, 3); err != nil {
			return err
		}
		if err := expectEq("sendrecv payload", in[0], int32(peer)); err != nil {
			return err
		}
	}
	return nil
}

// progIsend: a ring of nonblocking sends and receives completed with
// WaitAll.
func progIsend(env *mpi.Env) error {
	w := env.CommWorld()
	rank, size := w.Rank(), w.Size()
	next, prev := (rank+1)%size, (rank-1+size)%size
	out := []int64{int64(rank * 11)}
	in := []int64{-1}
	rreq, err := w.Irecv(in, 0, 1, mpi.LONG, prev, 9)
	if err != nil {
		return err
	}
	sreq, err := w.Isend(out, 0, 1, mpi.LONG, next, 9)
	if err != nil {
		return err
	}
	if _, err := mpi.WaitAll([]*mpi.Request{rreq, sreq}); err != nil {
		return err
	}
	return expectEq("ring payload", in[0], int64(prev*11))
}

// progSsend: synchronous send must not complete before the receive is
// posted; the test checks the data path and that a matched pair
// completes.
func progSsend(env *mpi.Env) error {
	w := env.CommWorld()
	if w.Rank() == 0 {
		buf := []float64{3.25, -1.5}
		return w.Ssend(buf, 0, 2, mpi.DOUBLE, 1, 17)
	}
	in := make([]float64, 2)
	st, err := w.Recv(in, 0, 2, mpi.DOUBLE, 0, 17)
	if err != nil {
		return err
	}
	if err := expectEq("ssend count", st.GetCount(mpi.DOUBLE), 2); err != nil {
		return err
	}
	if in[0] != 3.25 || in[1] != -1.5 {
		return failf("ssend payload: got %v", in)
	}
	return nil
}

// progBsend: buffered sends drawn against an attached buffer, completing
// locally before any receive exists.
func progBsend(env *mpi.Env) error {
	w := env.CommWorld()
	if w.Rank() == 0 {
		if err := env.BufferAttach(1 << 16); err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			buf := []int32{int32(i)}
			if err := w.Bsend(buf, 0, 1, mpi.INT, 1, 20+i); err != nil {
				return err
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		if _, err := env.BufferDetach(); err != nil {
			return err
		}
		return nil
	}
	if err := w.Barrier(); err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		in := []int32{-1}
		if _, err := w.Recv(in, 0, 1, mpi.INT, 0, 20+i); err != nil {
			return err
		}
		if err := expectEq("bsend payload", in[0], int32(i)); err != nil {
			return err
		}
	}
	return nil
}

// progRsend: ready-mode sends — blocking, nonblocking and two
// activations of a persistent one — with every receive guaranteed
// posted via a synchronising exchange.
func progRsend(env *mpi.Env) error {
	w := env.CommWorld()
	flag := []byte{1}
	if w.Rank() == 0 {
		// Wait for the receiver's "posted" signal, then ready-send.
		if _, err := w.Recv(flag, 0, 1, mpi.BYTE, 1, 1); err != nil {
			return err
		}
		buf := []int16{1234}
		if err := w.Rsend(buf, 0, 1, mpi.SHORT, 1, 2); err != nil {
			return err
		}
		buf[0] = 2345
		req, err := w.Irsend(buf, 0, 1, mpi.SHORT, 1, 3)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		preq, err := w.RsendInit(buf, 0, 1, mpi.SHORT, 1, 4)
		if err != nil {
			return err
		}
		for _, v := range []int16{3456, 4567} {
			buf[0] = v
			if err := preq.Start(); err != nil {
				return err
			}
			if _, err := preq.Wait(); err != nil {
				return err
			}
		}
		return preq.Free()
	}
	in := make([]int16, 4)
	var reqs []*mpi.Request
	for i, tag := range []int{2, 3, 4, 4} {
		rreq, err := w.Irecv(in, i, 1, mpi.SHORT, 0, tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, rreq)
	}
	if err := w.Send(flag, 0, 1, mpi.BYTE, 0, 1); err != nil {
		return err
	}
	if _, err := mpi.WaitAll(reqs); err != nil {
		return err
	}
	return expectEq("ready-send payloads", [4]int16(in), [4]int16{1234, 2345, 3456, 4567})
}

// progAnySource: rank 0 collects one message from every other rank with
// the source wildcard and checks each arrives exactly once.
func progAnySource(env *mpi.Env) error {
	w := env.CommWorld()
	rank, size := w.Rank(), w.Size()
	if rank != 0 {
		buf := []int32{int32(rank)}
		return w.Send(buf, 0, 1, mpi.INT, 0, 30)
	}
	seen := make(map[int]bool)
	for i := 1; i < size; i++ {
		in := []int32{-1}
		st, err := w.Recv(in, 0, 1, mpi.INT, mpi.AnySource, 30)
		if err != nil {
			return err
		}
		if err := expectEq("wildcard source vs payload", int32(st.Source), in[0]); err != nil {
			return err
		}
		if seen[st.Source] {
			return failf("duplicate message from rank %d", st.Source)
		}
		seen[st.Source] = true
	}
	return nil
}

// progAnyTag: the tag wildcard matches in send order per pair.
func progAnyTag(env *mpi.Env) error {
	w := env.CommWorld()
	if w.Rank() == 0 {
		for i := 0; i < 5; i++ {
			buf := []int32{int32(100 + i)}
			if err := w.Send(buf, 0, 1, mpi.INT, 1, 40+i); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < 5; i++ {
		in := []int32{-1}
		st, err := w.Recv(in, 0, 1, mpi.INT, 0, mpi.AnyTag)
		if err != nil {
			return err
		}
		if err := expectEq("anytag order", st.Tag, 40+i); err != nil {
			return err
		}
		if err := expectEq("anytag payload", in[0], int32(100+i)); err != nil {
			return err
		}
	}
	return nil
}

// progOrdering: MPI's non-overtaking rule — many same-envelope messages
// arrive in send order.
func progOrdering(env *mpi.Env) error {
	const n = 200
	w := env.CommWorld()
	if w.Rank() == 0 {
		for i := 0; i < n; i++ {
			buf := []int32{int32(i)}
			if err := w.Send(buf, 0, 1, mpi.INT, 1, 7); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		in := []int32{-1}
		if _, err := w.Recv(in, 0, 1, mpi.INT, 0, 7); err != nil {
			return err
		}
		if err := expectEq("message order", in[0], int32(i)); err != nil {
			return err
		}
	}
	return nil
}

// progProbe: probe reports the pending message's envelope and size, after
// which a right-sized receive collects it.
func progProbe(env *mpi.Env) error {
	w := env.CommWorld()
	if w.Rank() == 0 {
		buf := []float32{1, 2, 3, 4, 5, 6, 7}
		return w.Send(buf, 0, 7, mpi.FLOAT, 1, 55)
	}
	st, err := w.Probe(mpi.AnySource, mpi.AnyTag)
	if err != nil {
		return err
	}
	if err := expectEq("probe source", st.Source, 0); err != nil {
		return err
	}
	if err := expectEq("probe tag", st.Tag, 55); err != nil {
		return err
	}
	n := st.GetCount(mpi.FLOAT)
	if err := expectEq("probe count", n, 7); err != nil {
		return err
	}
	in := make([]float32, n)
	if _, err := w.Recv(in, 0, n, mpi.FLOAT, st.Source, st.Tag); err != nil {
		return err
	}
	if in[6] != 7 {
		return failf("probe payload: got %v", in)
	}
	return nil
}

// progPersist: persistent send/recv requests restarted across
// iterations.
func progPersist(env *mpi.Env) error {
	const iters = 8
	w := env.CommWorld()
	buf := []int32{0}
	if w.Rank() == 0 {
		preq, err := w.SendInit(buf, 0, 1, mpi.INT, 1, 60)
		if err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			buf[0] = int32(i * i)
			if err := preq.Start(); err != nil {
				return err
			}
			if _, err := preq.Wait(); err != nil {
				return err
			}
		}
		return preq.Free()
	}
	preq, err := w.RecvInit(buf, 0, 1, mpi.INT, 0, 60)
	if err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		if err := preq.Start(); err != nil {
			return err
		}
		if _, err := preq.Wait(); err != nil {
			return err
		}
		if err := expectEq("persistent payload", buf[0], int32(i*i)); err != nil {
			return err
		}
	}
	return preq.Free()
}

// progWaitAny: rank 0 posts receives from all peers and drains them with
// WaitAny, checking the Status.Index convention (paper §2.1).
func progWaitAny(env *mpi.Env) error {
	w := env.CommWorld()
	rank, size := w.Rank(), w.Size()
	if rank != 0 {
		buf := []int32{int32(rank * 3)}
		return w.Send(buf, 0, 1, mpi.INT, 0, 70)
	}
	reqs := make([]*mpi.Request, size-1)
	bufs := make([][]int32, size-1)
	for i := range reqs {
		bufs[i] = []int32{-1}
		var err error
		reqs[i], err = w.Irecv(bufs[i], 0, 1, mpi.INT, i+1, 70)
		if err != nil {
			return err
		}
	}
	done := make(map[int]bool)
	for range reqs {
		st, err := mpi.WaitAny(reqs)
		if err != nil {
			return err
		}
		i := st.Index
		if i < 0 || i >= len(reqs) || done[i] {
			return failf("WaitAny returned bad index %d", i)
		}
		done[i] = true
		if err := expectEq("waitany payload", bufs[i][0], int32((i+1)*3)); err != nil {
			return err
		}
		reqs[i].Free()
	}
	return nil
}

// progSendrecvReplace: rotate values around a ring in place.
func progSendrecvReplace(env *mpi.Env) error {
	w := env.CommWorld()
	rank, size := w.Rank(), w.Size()
	next, prev := (rank+1)%size, (rank-1+size)%size
	buf := []int32{int32(rank)}
	for step := 0; step < size; step++ {
		if _, err := w.SendrecvReplace(buf, 0, 1, mpi.INT, next, 80, prev, 80); err != nil {
			return err
		}
	}
	return expectEq("full rotation restores value", buf[0], int32(rank))
}
