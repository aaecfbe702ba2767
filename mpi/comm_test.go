package mpi_test

import (
	"slices"
	"testing"

	"gompi/mpi"
)

func TestCommBasics(t *testing.T) {
	err := mpi.Run(3, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Size() != 3 {
			t.Errorf("world size %d", w.Size())
		}
		if w.Rank() != env.Rank() {
			t.Errorf("rank mismatch: %d vs %d", w.Rank(), env.Rank())
		}
		if w.TestInter() {
			t.Error("world tests as intercomm")
		}
		if w.Name() != "MPI.COMM_WORLD" {
			t.Errorf("world name %q", w.Name())
		}
		w.SetName("renamed")
		if w.Name() != "renamed" {
			t.Error("SetName failed")
		}
		w.SetName("MPI.COMM_WORLD")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColour(t *testing.T) {
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		colour := 0
		if w.Rank() >= 2 {
			colour = mpi.Undefined
		}
		sub, err := w.Split(colour, 0)
		if err != nil {
			return err
		}
		if w.Rank() >= 2 {
			if sub != nil {
				t.Errorf("rank %d: expected nil comm for Undefined colour", w.Rank())
			}
			return nil
		}
		if sub == nil || sub.Size() != 2 {
			t.Errorf("rank %d: bad subcomm %v", w.Rank(), sub)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNegativeColour(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		_, err := w.Split(-5, 0)
		if mpi.ClassOf(err) != mpi.ErrArg {
			t.Errorf("negative colour: %v", err)
		}
		return nil
	})
	// The two ranks disagree on collective participation after the
	// error; both erred out before communicating, so Run succeeds.
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSplits(t *testing.T) {
	err := mpi.Run(8, func(env *mpi.Env) error {
		w := env.CommWorld()
		half, err := w.Split(w.Rank()/4, w.Rank())
		if err != nil {
			return err
		}
		quarter, err := half.Split(half.Rank()/2, half.Rank())
		if err != nil {
			return err
		}
		if quarter.Size() != 2 {
			t.Errorf("nested split size %d", quarter.Size())
		}
		// Collectives on all three levels interleave safely.
		sum := func(c *mpi.Intracomm) (int32, error) {
			in := []int32{int32(w.Rank())}
			out := []int32{0}
			err := c.Allreduce(in, 0, out, 0, 1, mpi.INT, mpi.SUM)
			return out[0], err
		}
		sw, err := sum(w)
		if err != nil {
			return err
		}
		if sw != 28 {
			t.Errorf("world sum %d", sw)
		}
		sh, err := sum(half)
		if err != nil {
			return err
		}
		wantHalf := int32(0 + 1 + 2 + 3)
		if w.Rank() >= 4 {
			wantHalf = 4 + 5 + 6 + 7
		}
		if sh != wantHalf {
			t.Errorf("half sum %d, want %d", sh, wantHalf)
		}
		sq, err := sum(quarter)
		if err != nil {
			return err
		}
		base := int32(w.Rank() / 2 * 2)
		if sq != base+base+1 {
			t.Errorf("quarter sum %d", sq)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreateWithNonSubsetGroup(t *testing.T) {
	err := mpi.Run(3, func(env *mpi.Env) error {
		w := env.CommWorld()
		sub, err := w.Split(boolToColour(w.Rank() < 2), w.Rank())
		if err != nil {
			return err
		}
		if w.Rank() >= 2 {
			return nil
		}
		// A group containing rank 2's world rank is not a subset of sub.
		g := w.Group()
		bad, err := g.Incl([]int{2})
		if err != nil {
			return err
		}
		_, err = sub.Create(bad)
		if mpi.ClassOf(err) != mpi.ErrGroup {
			t.Errorf("non-subset Create: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func boolToColour(b bool) int {
	if b {
		return 0
	}
	return 1
}

func TestDupIsolatesCollectives(t *testing.T) {
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		d1, err := w.Dup()
		if err != nil {
			return err
		}
		d2, err := d1.Dup()
		if err != nil {
			return err
		}
		// Interleave collectives on three communicators.
		for i := 0; i < 3; i++ {
			in := []int32{1}
			out := []int32{0}
			if err := d2.Allreduce(in, 0, out, 0, 1, mpi.INT, mpi.SUM); err != nil {
				return err
			}
			if err := w.Barrier(); err != nil {
				return err
			}
			if err := d1.Bcast(out, 0, 1, mpi.INT, i%4); err != nil {
				return err
			}
			if out[0] != 4 {
				t.Errorf("iteration %d: %d", i, out[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupFromComm(t *testing.T) {
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		g := w.Group()
		if g.Size() != 4 || g.Rank() != w.Rank() {
			t.Errorf("group size=%d rank=%d", g.Size(), g.Rank())
		}
		// Group of a subcomm maps back to world ranks consistently.
		sub, err := w.Split(w.Rank()%2, -w.Rank())
		if err != nil {
			return err
		}
		sg := sub.Group()
		tr, err := mpi.TranslateRanks(sg, []int{sub.Rank()}, g)
		if err != nil {
			return err
		}
		if tr[0] != w.Rank() {
			t.Errorf("translate own rank: %d, want %d", tr[0], w.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntercommDup(t *testing.T) {
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		side := w.Rank() % 2
		local, err := w.Split(side, w.Rank())
		if err != nil {
			return err
		}
		remoteLeader := 1 - side // world ranks 0 and 1 lead the sides
		ic, err := local.CreateIntercomm(&w.Comm, 0, remoteLeader, 5)
		if err != nil {
			return err
		}
		dup, err := ic.Dup()
		if err != nil {
			return err
		}
		if dup.RemoteSize() != ic.RemoteSize() || !dup.TestInter() {
			t.Errorf("dup geometry: remote=%d inter=%v", dup.RemoteSize(), dup.TestInter())
		}
		// The remote group is the other side's world ranks, in their
		// local rank order.
		remote, err := mpi.TranslateRanks(dup.RemoteGroup(), []int{0, 1}, w.Group())
		if err != nil {
			return err
		}
		if want := []int{1 - side, 3 - side}; dup.RemoteGroup().Size() != 2 || !slices.Equal(remote, want) {
			t.Errorf("rank %d: remote group %v of size %d, want %v", w.Rank(), remote, dup.RemoteGroup().Size(), want)
		}
		// Traffic on the dup is isolated from the original.
		out := []int32{int32(w.Rank())}
		in := []int32{-1}
		lr := ic.Rank()
		if _, err := dup.Sendrecv(out, 0, 1, mpi.INT, lr, 1, in, 0, 1, mpi.INT, lr, 1); err != nil {
			return err
		}
		if in[0] != int32(1-side+2*lr) {
			t.Errorf("dup exchange: got %d", in[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntercommMergeHighOrdering(t *testing.T) {
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		side := 0
		if w.Rank() >= 2 {
			side = 1
		}
		local, err := w.Split(side, w.Rank())
		if err != nil {
			return err
		}
		remoteLeader := 2
		if side == 1 {
			remoteLeader = 0
		}
		ic, err := local.CreateIntercomm(&w.Comm, 0, remoteLeader, 7)
		if err != nil {
			return err
		}
		// Reverse ordering: side 0 passes high=true, side 1 high=false.
		merged, err := ic.Merge(side == 0)
		if err != nil {
			return err
		}
		// Side 1 (ranks 2,3) must come first.
		wantRank := map[int]int{2: 0, 3: 1, 0: 2, 1: 3}[w.Rank()]
		if merged.Rank() != wantRank {
			t.Errorf("world rank %d: merged rank %d, want %d", w.Rank(), merged.Rank(), wantRank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatusGetCountPacked(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			buf := []byte{1, 2, 3, 4, 5, 6, 7}
			return w.Send(buf, 0, 7, mpi.PACKED, 1, 1)
		}
		in := make([]byte, 16)
		st, err := w.Recv(in, 0, 16, mpi.PACKED, 0, 1)
		if err != nil {
			return err
		}
		if st.GetCount(mpi.PACKED) != 7 || st.Bytes() != 7 {
			t.Errorf("packed count: %d bytes %d", st.GetCount(mpi.PACKED), st.Bytes())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFinalizeSemantics(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		if err := w.Barrier(); err != nil {
			return err
		}
		if err := env.Finalize(); err != nil {
			return err
		}
		if env.Initialized() {
			t.Error("Initialized true after Finalize")
		}
		// Communication after Finalize fails cleanly.
		buf := []int32{0}
		if err := w.Send(buf, 0, 1, mpi.INT, 0, 0); mpi.ClassOf(err) != mpi.ErrComm {
			t.Errorf("send after finalize: %v", err)
		}
		if err := env.Finalize(); err == nil {
			t.Error("double Finalize must error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
