package typed_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gompi/mpi"
	"gompi/mpi/typed"
)

// TestTypedVVariantsRoundTrip: Gatherv → Scatterv is the identity on
// varying per-rank sizes, and Allgatherv/Alltoallv deliver the same
// triangle everywhere.
func TestTypedVVariantsRoundTrip(t *testing.T) {
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()
		counts := make([]int, size)
		total := 0
		for r := range counts {
			counts[r] = r + 1
			total += r + 1
		}

		send := make([]float64, rank+1)
		for i := range send {
			send[i] = float64(rank) + float64(i)/10
		}

		// Gatherv at root 1.
		var gat []float64
		if rank == 1 {
			gat = make([]float64, total)
		}
		if err := typed.Gatherv(w, send, gat, counts, 1); err != nil {
			return err
		}
		if rank == 1 {
			at := 0
			for r := 0; r < size; r++ {
				for i := 0; i <= r; i++ {
					if gat[at] != float64(r)+float64(i)/10 {
						t.Errorf("Gatherv slot %d = %v", at, gat[at])
					}
					at++
				}
			}
		}

		// Scatterv the gathered triangle back out.
		back := make([]float64, rank+1)
		if err := typed.Scatterv(w, gat, counts, back, 1); err != nil {
			return err
		}
		for i := range back {
			if back[i] != send[i] {
				t.Errorf("rank %d: Scatterv slot %d = %v, want %v", rank, i, back[i], send[i])
			}
		}

		// Allgatherv: every member assembles the triangle.
		all := make([]float64, total)
		if err := typed.Allgatherv(w, send, all, counts); err != nil {
			return err
		}
		at := 0
		for r := 0; r < size; r++ {
			for i := 0; i <= r; i++ {
				if all[at] != float64(r)+float64(i)/10 {
					t.Errorf("rank %d: Allgatherv slot %d = %v", rank, at, all[at])
				}
				at++
			}
		}

		// Alltoallv: member r sends j+1 elements stamped (r, j) to j.
		scounts := make([]int, size)
		stotal := 0
		for j := range scounts {
			scounts[j] = j + 1
			stotal += j + 1
		}
		sbuf := make([]int32, 0, stotal)
		for j := 0; j < size; j++ {
			for i := 0; i <= j; i++ {
				sbuf = append(sbuf, int32(rank*100+j))
			}
		}
		rcounts := make([]int, size)
		rtotal := 0
		for j := range rcounts {
			rcounts[j] = rank + 1
			rtotal += rank + 1
		}
		rbuf := make([]int32, rtotal)
		if err := typed.Alltoallv(w, sbuf, scounts, rbuf, rcounts); err != nil {
			return err
		}
		at = 0
		for j := 0; j < size; j++ {
			for i := 0; i <= rank; i++ {
				if rbuf[at] != int32(j*100+rank) {
					t.Errorf("rank %d: Alltoallv slot %d = %d", rank, at, rbuf[at])
				}
				at++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTypedVVariantsObjects: the v-variants carry Obj-routed element
// types (structs) too, depositing at the right ranks.
func TestTypedVVariantsObjects(t *testing.T) {
	type tag struct{ Who, Seq int }
	err := mpi.Run(3, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()
		counts := make([]int, size)
		total := 0
		for r := range counts {
			counts[r] = r + 1
			total += r + 1
		}
		send := make([]tag, rank+1)
		for i := range send {
			send[i] = tag{Who: rank, Seq: i}
		}
		var gat []tag
		if rank == 0 {
			gat = make([]tag, total)
		}
		if err := typed.Gatherv(w, send, gat, counts, 0); err != nil {
			return err
		}
		if rank == 0 {
			at := 0
			for r := 0; r < size; r++ {
				for i := 0; i <= r; i++ {
					if gat[at] != (tag{Who: r, Seq: i}) {
						t.Errorf("object Gatherv slot %d = %+v", at, gat[at])
					}
					at++
				}
			}
		}
		all := make([]tag, total)
		if err := typed.Allgatherv(w, send, all, counts); err != nil {
			return err
		}
		at := 0
		for r := 0; r < size; r++ {
			for i := 0; i <= r; i++ {
				if all[at] != (tag{Who: r, Seq: i}) {
					t.Errorf("rank %d: object Allgatherv slot %d = %+v", rank, at, all[at])
				}
				at++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTypedPairMinMaxLoc: compile-time-safe MINLOC/MAXLOC over
// typed.Pair, including the minimum-index tie rule and classic-wire
// interop via the flattened layout.
func TestTypedPairMinMaxLoc(t *testing.T) {
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()

		// Value peaks at rank 2.
		v := float64(10 - (rank-2)*(rank-2))
		got, err := typed.AllreducePairOne(w, typed.PairOf(v, rank), typed.MaxLoc[float64]())
		if err != nil {
			return err
		}
		if got.Value != 10 || got.Index != 2 {
			t.Errorf("rank %d: maxloc %+v, want {10 2}", rank, got)
		}

		// Tie: MPI picks the minimum index.
		tie, err := typed.AllreducePairOne(w, typed.PairOf(int32(7), rank), typed.MaxLoc[int32]())
		if err != nil {
			return err
		}
		if tie.Value != 7 || tie.Index != 0 {
			t.Errorf("rank %d: tie maxloc %+v", rank, tie)
		}

		// Slice form with MINLOC, reduced to a root.
		send := []typed.Pair[int64]{
			typed.PairOf(int64(rank+5), rank),
			typed.PairOf(int64(100-rank), rank),
		}
		var recv []typed.Pair[int64]
		if rank == 1 {
			recv = make([]typed.Pair[int64], 2)
		}
		if err := typed.ReducePairs(w, send, recv, typed.MinLoc[int64](), 1); err != nil {
			return err
		}
		if rank == 1 {
			if recv[0].Value != 5 || recv[0].Index != 0 {
				t.Errorf("minloc[0] %+v", recv[0])
			}
			if recv[1].Value != 97 || recv[1].Index != 3 {
				t.Errorf("minloc[1] %+v", recv[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTypedNonblockingCollectives: typed I* collectives overlap in
// flight and fill their buffers at completion, for native and
// Obj-routed element types.
func TestTypedNonblockingCollectives(t *testing.T) {
	type note struct{ Text string }
	err := mpi.Run(3, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()

		sum := make([]int64, 1)
		rSum, err := typed.Iallreduce(w, []int64{int64(rank + 1)}, sum, typed.Sum[int64]())
		if err != nil {
			return err
		}
		all := make([]int32, size)
		rAll, err := typed.Iallgather(w, []int32{int32(rank * 2)}, all)
		if err != nil {
			return err
		}
		objs := make([]note, 1)
		if rank == 2 {
			objs[0] = note{Text: "typed ibcast"}
		}
		rObj, err := typed.Ibcast(w, objs, 2)
		if err != nil {
			return err
		}
		scan := make([]int32, 1)
		rScan, err := typed.Iscan(w, []int32{int32(rank + 1)}, scan, typed.Sum[int32]())
		if err != nil {
			return err
		}

		if _, err := rScan.Wait(); err != nil {
			return err
		}
		if _, err := rObj.Wait(); err != nil {
			return err
		}
		if _, err := rAll.Wait(); err != nil {
			return err
		}
		if _, err := rSum.Wait(); err != nil {
			return err
		}

		if want := int64(size * (size + 1) / 2); sum[0] != want {
			t.Errorf("rank %d: Iallreduce %d, want %d", rank, sum[0], want)
		}
		for r := range all {
			if all[r] != int32(r*2) {
				t.Errorf("rank %d: Iallgather slot %d = %d", rank, r, all[r])
			}
		}
		if objs[0].Text != "typed ibcast" {
			t.Errorf("rank %d: Ibcast object %+v", rank, objs[0])
		}
		if want := int32((rank + 1) * (rank + 2) / 2); scan[0] != want {
			t.Errorf("rank %d: Iscan %d, want %d", rank, scan[0], want)
		}

		// Rooted forms: Igather + Iscatter + Ireduce together.
		gat := make([]int64, size)
		rG, err := typed.Igather(w, []int64{int64(rank + 30)}, gat, 0)
		if err != nil {
			return err
		}
		var deal []int32
		if rank == 1 {
			deal = []int32{10, 11, 12}
		}
		mine := make([]int32, 1)
		rS, err := typed.Iscatter(w, deal, mine, 1)
		if err != nil {
			return err
		}
		red := make([]float64, 1)
		rR, err := typed.Ireduce(w, []float64{float64(rank)}, red, typed.Max[float64](), 0)
		if err != nil {
			return err
		}
		if _, err := rG.Wait(); err != nil {
			return err
		}
		if _, err := rS.Wait(); err != nil {
			return err
		}
		if _, err := rR.Wait(); err != nil {
			return err
		}
		if rank == 0 {
			for r := range gat {
				if gat[r] != int64(r+30) {
					t.Errorf("Igather slot %d = %d", r, gat[r])
				}
			}
			if red[0] != float64(size-1) {
				t.Errorf("Ireduce %v", red[0])
			}
		}
		if mine[0] != int32(10+rank) {
			t.Errorf("rank %d: Iscatter %d", rank, mine[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTypedCollectiveWaitCtx: WaitCtx on a typed collective request
// returns the context error promptly when a peer is absent, the late
// peer's call of the cancelled instance fails with ErrOther, and the
// communicator carries the next collective.
func TestTypedCollectiveWaitCtx(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 1 {
			buf := []int64{-1}
			req, err := typed.Ibcast(w, buf, 0)
			if err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			if _, err := req.WaitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("typed WaitCtx: %v, want deadline exceeded", err)
			}
			if buf[0] != -1 {
				t.Errorf("cancelled typed Ibcast touched the buffer: %d", buf[0])
			}
		} else {
			time.Sleep(150 * time.Millisecond)
			if err := typed.Bcast(w, []int64{5}, 0); mpi.ClassOf(err) != mpi.ErrOther {
				t.Errorf("late root's Bcast of the cancelled instance: %v, want %v", err, mpi.ErrOther)
			}
		}
		got, err := typed.AllreduceOne(w, int32(w.Rank()+1), typed.Sum[int32]())
		if err != nil {
			return err
		}
		if got != 3 {
			t.Errorf("rank %d: allreduce after cancel %d, want 3", w.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTypedRawJoinsClassicSets: a typed collective's request and a typed
// receive's request complete together in one classic WaitAll; the typed
// layer adds no request kind of its own.
func TestTypedRawJoinsClassicSets(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()
		sum := []int64{0}
		red, err := typed.Iallreduce(w, []int64{int64(rank + 1)}, sum, typed.Sum[int64]())
		if err != nil {
			return err
		}
		in := []int32{0}
		recv, err := typed.Irecv(w, in, 1-rank, 4)
		if err != nil {
			return err
		}
		if err := typed.Send(w, []int32{int32(rank + 10)}, 1-rank, 4); err != nil {
			return err
		}
		if _, err := mpi.WaitAll([]*mpi.Request{red, recv}); err != nil {
			return err
		}
		if sum[0] != 3 || in[0] != int32(11-rank) {
			t.Errorf("rank %d: sum %d, received %d; want 3 and %d", rank, sum[0], in[0], 11-rank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Every communicator kind satisfies the typed interface it can: Peer
// through the Base accessor of *mpi.Comm, Comm through the Intra accessor
// of *mpi.Intracomm, both promoted through embedding.
var (
	_ typed.Peer = (*mpi.Comm)(nil)
	_ typed.Peer = (*mpi.Intercomm)(nil)
	_ typed.Peer = (*mpi.Intracomm)(nil)
	_ typed.Peer = (*mpi.Cartcomm)(nil)
	_ typed.Peer = (*mpi.Graphcomm)(nil)
	_ typed.Comm = (*mpi.Intracomm)(nil)
	_ typed.Comm = (*mpi.Cartcomm)(nil)
	_ typed.Comm = (*mpi.Graphcomm)(nil)
)

// TestTypedCollectivesOnCartcomm: the typed collectives and files are
// generic over the Comm interface — a Cartcomm and a Graphcomm plug in
// through the accessor they inherit, without new entry points.
func TestTypedCollectivesOnCartcomm(t *testing.T) {
	kinds := []struct {
		name string
		make func(w *mpi.Intracomm) (typed.Comm, error)
	}{
		{"cart", func(w *mpi.Intracomm) (typed.Comm, error) {
			return w.CreateCart([]int{2, 2}, []bool{false, false}, false)
		}},
		{"graph", func(w *mpi.Intracomm) (typed.Comm, error) { // a ring
			return w.CreateGraph([]int{2, 4, 6, 8}, []int{1, 3, 0, 2, 1, 3, 0, 2}, false)
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), kind.name+".bin")
			err := mpi.Run(4, func(env *mpi.Env) error {
				c, err := kind.make(env.CommWorld())
				if err != nil {
					return err
				}
				sum, err := typed.AllreduceOne(c, int64(c.Rank()+1), typed.Sum[int64]())
				if err != nil {
					return err
				}
				if sum != 10 {
					t.Errorf("%s rank %d: allreduce %d, want 10", kind.name, c.Rank(), sum)
				}
				if err := typed.Barrier(c); err != nil {
					return err
				}
				all := make([]int32, c.Size())
				if err := typed.Allgather(c, []int32{int32(c.Rank())}, all); err != nil {
					return err
				}
				for r := range all {
					if all[r] != int32(r) {
						t.Errorf("%s rank %d: allgather slot %d = %d", kind.name, c.Rank(), r, all[r])
					}
				}
				f, err := typed.OpenFile[int32](c, path, mpi.ModeCreate|mpi.ModeRdwr|mpi.ModeDeleteOnClose)
				if err != nil {
					return err
				}
				if _, err := f.WriteAllAt([]int32{int32(c.Rank())}, c.Rank()); err != nil {
					return err
				}
				if err := typed.Barrier(c); err != nil {
					return err
				}
				back := make([]int32, c.Size())
				if _, err := f.ReadAllAt(back, 0); err != nil {
					return err
				}
				if !reflect.DeepEqual(back, all) {
					t.Errorf("%s rank %d: file holds %v, want %v", kind.name, c.Rank(), back, all)
				}
				return f.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTypedVVariantLengthValidation: buffers that disagree with the
// counts are rejected up front with a typed-layer error, before any
// traffic starts. The probes run on COMM_SELF: a rejected typed call
// still consumes a collective instance (SkipColl), so erroneous calls
// made on one world rank only would violate the same-order rule.
func TestTypedVVariantLengthValidation(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		c := env.CommSelf()
		counts := []int{2}
		if err := typed.Gatherv(c, []float64{1, 2}, make([]float64, 5), counts, 0); err == nil {
			t.Error("Gatherv accepted a wrong-length recv at root")
		}
		if err := typed.Scatterv(c, make([]float64, 5), counts, make([]float64, 2), 0); err == nil {
			t.Error("Scatterv accepted a long send at root")
		}
		if err := typed.Allgatherv(c, make([]int32, 2), make([]int32, 5), counts); err == nil {
			t.Error("Allgatherv accepted a wrong-length recv")
		}
		if err := typed.Alltoallv(c, make([]int32, 3), []int{2}, make([]int32, 2), []int{2}); err == nil {
			t.Error("Alltoallv accepted a mismatched send")
		}
		return env.CommWorld().Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTypedValidationKeepsRanksAligned: a typed-layer rejection on one
// member (root's bad recv length) while the other member's matching
// call proceeds must not desynchronize the communicator — the rejected
// call consumes its collective instance via SkipColl.
func TestTypedValidationKeepsRanksAligned(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		counts := []int{1, 1}
		send := []int32{int32(w.Rank())}
		if w.Rank() == 0 {
			// Root: recv too short for sum(counts) → typed-layer error.
			if err := typed.Gatherv(w, send, make([]int32, 1), counts, 0); err == nil {
				t.Error("Gatherv accepted a short recv at root")
			}
		} else {
			// Non-root's matching call is valid and completes (its
			// contribution travels eagerly).
			if err := typed.Gatherv(w, send, nil, counts, 0); err != nil {
				return err
			}
		}
		// The next collectives still match; guard against regression
		// with a deadline instead of hanging the suite.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req, err := w.Ibarrier()
		if err == nil {
			_, err = req.WaitCtx(ctx)
		}
		if err != nil {
			t.Errorf("barrier after typed-layer rejection: %v", err)
			return nil
		}
		got, err := typed.AllreduceOne(w, int64(w.Rank()+1), typed.Sum[int64]())
		if err != nil {
			return err
		}
		if got != 3 {
			t.Errorf("allreduce after typed-layer rejection: %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTypedAlltoallRejectsRaggedBuffers: a buffer that does not divide
// into Size() blocks must error instead of silently dropping the tail.
func TestTypedAlltoallRejectsRaggedBuffers(t *testing.T) {
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		send := make([]int32, 10) // not a multiple of 4
		recv := make([]int32, 10)
		if err := typed.Alltoall(w, send, recv); err == nil {
			t.Error("Alltoall accepted a ragged send buffer")
		}
		if _, err := typed.Ialltoall(w, send, recv); err == nil {
			t.Error("Ialltoall accepted a ragged send buffer")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTypedAlltoall: the typed block alltoall transposes stamps.
func TestTypedAlltoall(t *testing.T) {
	err := mpi.Run(3, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()
		send := make([]int32, 2*size)
		for j := 0; j < size; j++ {
			send[2*j] = int32(rank*10 + j)
			send[2*j+1] = int32(-(rank*10 + j))
		}
		recv := make([]int32, 2*size)
		if err := typed.Alltoall(w, send, recv); err != nil {
			return err
		}
		for j := 0; j < size; j++ {
			if recv[2*j] != int32(j*10+rank) || recv[2*j+1] != int32(-(j*10+rank)) {
				t.Errorf("rank %d: alltoall block %d = [%d %d]", rank, j, recv[2*j], recv[2*j+1])
			}
		}
		// And the nonblocking form.
		recv2 := make([]int32, 2*size)
		req, err := typed.Ialltoall(w, send, recv2)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		for j := range recv {
			if recv2[j] != recv[j] {
				t.Errorf("rank %d: Ialltoall slot %d = %d, want %d", rank, j, recv2[j], recv[j])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
