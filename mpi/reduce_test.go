package mpi_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gompi/internal/core"
	"gompi/internal/transport"
	"gompi/mpi"
)

// reductionEntryPoints calls every reduction entry point — blocking,
// nonblocking and persistent — with the given operands (root 0, count
// items per ReduceScatter segment), and returns each call's error by
// name. A nonblocking or persistent call that is accepted is driven to
// completion, so the communicator is left clean.
func reductionEntryPoints(w *mpi.Intracomm, send, recv any, count int, d *mpi.Datatype, op *mpi.Op) map[string]error {
	counts := make([]int, w.Size())
	for i := range counts {
		counts[i] = count
	}
	errs := map[string]error{
		"Reduce":        w.Reduce(send, 0, recv, 0, count, d, op, 0),
		"Allreduce":     w.Allreduce(send, 0, recv, 0, count, d, op),
		"Scan":          w.Scan(send, 0, recv, 0, count, d, op),
		"ReduceScatter": w.ReduceScatter(send, 0, recv, 0, counts, d, op),
	}
	settle := func(name string, req *mpi.Request, err error) {
		if err == nil {
			_, err = req.Wait()
		}
		errs[name] = err
	}
	ireq, err := w.Ireduce(send, 0, recv, 0, count, d, op, 0)
	settle("Ireduce", ireq, err)
	ireq, err = w.Iallreduce(send, 0, recv, 0, count, d, op)
	settle("Iallreduce", ireq, err)
	ireq, err = w.Iscan(send, 0, recv, 0, count, d, op)
	settle("Iscan", ireq, err)
	ireq, err = w.IreduceScatter(send, 0, recv, 0, counts, d, op)
	settle("IreduceScatter", ireq, err)
	errs["Exscan"] = w.Exscan(send, 0, recv, 0, count, d, op)
	ireq, err = w.Iexscan(send, 0, recv, 0, count, d, op)
	settle("Iexscan", ireq, err)
	persist := func(name string, p *mpi.PersistentRequest, err error) {
		if err == nil {
			if err = p.Start(); err == nil {
				_, err = p.Wait()
			}
			p.Free() //nolint:errcheck // Free never fails
		}
		errs[name] = err
	}
	p, err := w.ReduceInit(send, 0, recv, 0, count, d, op, 0)
	persist("ReduceInit", p, err)
	p, err = w.AllreduceInit(send, 0, recv, 0, count, d, op)
	persist("AllreduceInit", p, err)
	p, err = w.ScanInit(send, 0, recv, 0, count, d, op)
	persist("ScanInit", p, err)
	p, err = w.ExscanInit(send, 0, recv, 0, count, d, op)
	persist("ExscanInit", p, err)
	return errs
}

// expectAll requires every entry point to have failed with class want
// (ErrSuccess: to have succeeded). exscan, when given, is the class
// expected of the Exscan family instead.
func expectAll(rank int, errs map[string]error, want mpi.ErrClass, exscan ...mpi.ErrClass) error {
	for name, err := range errs {
		class := want
		if len(exscan) > 0 && (name == "Exscan" || name == "Iexscan" || name == "ExscanInit") {
			class = exscan[0]
		}
		if mpi.ClassOf(err) != class {
			return fmt.Errorf("rank %d %s: %v, want class %v", rank, name, err, class)
		}
	}
	return nil
}

// TestReductionOpClassCheckedAtCall: an operation outside its kernel
// table's classes is MPI_ERR_OP on every reduction entry point and on
// every member, raised at the call — the boxed path ran the first
// exchange and then failed mid-schedule with MPI_ERR_INTERN — and the
// instance numbering stays aligned for the collectives that follow.
func TestReductionOpClassCheckedAtCall(t *testing.T) {
	err := mpi.Run(3, func(env *mpi.Env) error {
		w := env.CommWorld()
		cases := []struct {
			send, recv any
			d          *mpi.Datatype
			op         *mpi.Op
		}{
			{[]float64{1}, []float64{0}, mpi.DOUBLE, mpi.BAND},
			{[]float32{1}, []float32{0}, mpi.FLOAT, mpi.BXOR},
			{[]float64{1}, []float64{0}, mpi.DOUBLE, mpi.LOR},
			{[]bool{true}, []bool{false}, mpi.BOOLEAN, mpi.SUM},
			{[]bool{true}, []bool{false}, mpi.BOOLEAN, mpi.MAX},
			{[]any{"x"}, []any{nil}, mpi.OBJECT, mpi.PROD},
		}
		for i, tc := range cases {
			errs := reductionEntryPoints(w, tc.send, tc.recv, 1, tc.d, tc.op)
			if err := expectAll(w.Rank(), errs, mpi.ErrOp); err != nil {
				return fmt.Errorf("case %d (%s): %w", i, tc.d.Name(), err)
			}
		}
		in, out := []int32{int32(w.Rank())}, []int32{0}
		if err := w.Allreduce(in, 0, out, 0, 1, mpi.INT, mpi.BOR); err != nil {
			return err
		}
		if out[0] != 3 {
			return fmt.Errorf("rank %d: allreduce after refused calls = %d", w.Rank(), out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReductionRecvSectionCheckedAtCall: a receive section too small
// for the result is MPI_ERR_BUFFER at the call on every entry point
// where the section is significant, not after the rounds have run. The
// probes run on COMM_SELF, where every member is the root and a refused
// call leaves no peer waiting; Exscan, whose rank 0 has no result and so
// accepts any section, is also probed on the world: ranks ≥ 1 refuse,
// rank 0 only ever sends.
func TestReductionRecvSectionCheckedAtCall(t *testing.T) {
	err := mpi.Run(3, func(env *mpi.Env) error {
		w, self := env.CommWorld(), env.CommSelf()
		send := []float64{1, 2, 3, 4}
		if err := expectAll(w.Rank(), reductionEntryPoints(self, send, make([]float64, 2), 4, mpi.DOUBLE, mpi.SUM), mpi.ErrBuffer, mpi.ErrSuccess); err != nil {
			return err
		}
		if err := expectAll(w.Rank(), reductionEntryPoints(self, send, []int32{0, 0, 0, 0}, 4, mpi.DOUBLE, mpi.SUM), mpi.ErrType, mpi.ErrSuccess); err != nil {
			return err
		}
		want := mpi.ErrBuffer
		if w.Rank() == 0 {
			want = mpi.ErrSuccess
		}
		if err := w.Exscan(send, 0, make([]float64, 2), 0, 4, mpi.DOUBLE, mpi.SUM); mpi.ClassOf(err) != want {
			return fmt.Errorf("rank %d exscan into a short section: %v, want class %v", w.Rank(), err, want)
		}
		// Where the section is not significant it is not looked at:
		// non-roots of Reduce and rank 0 of Exscan may pass anything.
		if err := w.Reduce(send, 0, nil, 0, 4, mpi.DOUBLE, mpi.SUM, 0); w.Rank() != 0 && err != nil {
			return fmt.Errorf("rank %d reduce with nil recvbuf: %v", w.Rank(), err)
		}
		if err := w.Exscan(send, 0, nil, 0, 4, mpi.DOUBLE, mpi.SUM); w.Rank() == 0 && err != nil {
			return fmt.Errorf("rank 0 exscan with nil recvbuf: %v", err)
		}
		out := make([]float64, 4)
		if err := w.Allreduce(send, 0, out, 0, 4, mpi.DOUBLE, mpi.SUM); err != nil {
			return err
		}
		if out[3] != 12 {
			return fmt.Errorf("rank %d: allreduce after refused calls = %v", w.Rank(), out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// movementEntryPoints calls every data-movement entry point — blocking,
// nonblocking (waited with Wait and with WaitCtx) and persistent,
// uniform and v-variant — moving count
// DOUBLEs per rank from send into recv (root 0), and returns each
// call's error by name. Accepted nonblocking and persistent calls are
// driven to completion, so the communicator is left clean.
func movementEntryPoints(w *mpi.Intracomm, send, recv any, count int) map[string]error {
	wait, d := waitCtx(context.Background()), mpi.DOUBLE
	counts, displs := make([]int, w.Size()), make([]int, w.Size())
	for r := range counts {
		counts[r], displs[r] = count, r*count
	}
	errs := map[string]error{
		"Gather":              w.Gather(send, 0, count, d, recv, 0, count, d, 0),
		"Igather+WaitCtx":     wait(w.Igather(send, 0, count, d, recv, 0, count, d, 0)),
		"Gatherv":             w.Gatherv(send, 0, count, d, recv, 0, counts, displs, d, 0),
		"Igatherv+WaitCtx":    wait(w.Igatherv(send, 0, count, d, recv, 0, counts, displs, d, 0)),
		"Scatter":             w.Scatter(send, 0, count, d, recv, 0, count, d, 0),
		"Iscatter+WaitCtx":    wait(w.Iscatter(send, 0, count, d, recv, 0, count, d, 0)),
		"Scatterv":            w.Scatterv(send, 0, counts, displs, d, recv, 0, count, d, 0),
		"Iscatterv+WaitCtx":   wait(w.Iscatterv(send, 0, counts, displs, d, recv, 0, count, d, 0)),
		"Allgather":           w.Allgather(send, 0, count, d, recv, 0, count, d),
		"Iallgather+WaitCtx":  wait(w.Iallgather(send, 0, count, d, recv, 0, count, d)),
		"Allgatherv":          w.Allgatherv(send, 0, count, d, recv, 0, counts, displs, d),
		"Iallgatherv+WaitCtx": wait(w.Iallgatherv(send, 0, count, d, recv, 0, counts, displs, d)),
		"Alltoall":            w.Alltoall(send, 0, count, d, recv, 0, count, d),
		"Ialltoall+WaitCtx":   wait(w.Ialltoall(send, 0, count, d, recv, 0, count, d)),
		"Alltoallv":           w.Alltoallv(send, 0, counts, displs, d, recv, 0, counts, displs, d),
		"Ialltoallv+WaitCtx":  wait(w.Ialltoallv(send, 0, counts, displs, d, recv, 0, counts, displs, d)),
	}
	settle := func(name string, req *mpi.Request, err error) {
		if err == nil {
			_, err = req.Wait()
		}
		errs[name] = err
	}
	ireq, err := w.Igather(send, 0, count, d, recv, 0, count, d, 0)
	settle("Igather", ireq, err)
	ireq, err = w.Igatherv(send, 0, count, d, recv, 0, counts, displs, d, 0)
	settle("Igatherv", ireq, err)
	ireq, err = w.Iscatter(send, 0, count, d, recv, 0, count, d, 0)
	settle("Iscatter", ireq, err)
	ireq, err = w.Iscatterv(send, 0, counts, displs, d, recv, 0, count, d, 0)
	settle("Iscatterv", ireq, err)
	ireq, err = w.Iallgather(send, 0, count, d, recv, 0, count, d)
	settle("Iallgather", ireq, err)
	ireq, err = w.Iallgatherv(send, 0, count, d, recv, 0, counts, displs, d)
	settle("Iallgatherv", ireq, err)
	ireq, err = w.Ialltoall(send, 0, count, d, recv, 0, count, d)
	settle("Ialltoall", ireq, err)
	ireq, err = w.Ialltoallv(send, 0, counts, displs, d, recv, 0, counts, displs, d)
	settle("Ialltoallv", ireq, err)
	persist := func(name string, p *mpi.PersistentRequest, err error) {
		if err == nil {
			if err = p.Start(); err == nil {
				_, err = p.Wait()
			}
			p.Free() //nolint:errcheck // Free never fails
		}
		errs[name] = err
	}
	p, err := w.GatherInit(send, 0, count, d, recv, 0, count, d, 0)
	persist("GatherInit", p, err)
	p, err = w.AllgatherInit(send, 0, count, d, recv, 0, count, d)
	persist("AllgatherInit", p, err)
	return errs
}

// bcastEntryPoints is movementEntryPoints for the broadcast family,
// whose one section is the send side at root 0 and the receive side
// elsewhere.
func bcastEntryPoints(w *mpi.Intracomm, buf any, count int) map[string]error {
	errs := map[string]error{
		"Bcast":          w.Bcast(buf, 0, count, mpi.DOUBLE, 0),
		"Ibcast+WaitCtx": waitCtx(context.Background())(w.Ibcast(buf, 0, count, mpi.DOUBLE, 0)),
	}
	req, err := w.Ibcast(buf, 0, count, mpi.DOUBLE, 0)
	if err == nil {
		_, err = req.Wait()
	}
	errs["Ibcast"] = err
	p, err := w.BcastInit(buf, 0, count, mpi.DOUBLE, 0)
	if err == nil {
		if err = p.Start(); err == nil {
			_, err = p.Wait()
		}
		p.Free() //nolint:errcheck // Free never fails
	}
	errs["BcastInit"] = err
	return errs
}

// TestMovementRecvSectionCheckedAtCall: the data-movement half of
// TestReductionRecvSectionCheckedAtCall. A receive section too small
// for what the collective delivers is MPI_ERR_BUFFER at the call on
// every entry point — the deposit used to report it after the schedule
// had run — and no schedule is armed for a refused call. Rooted probes
// run on COMM_SELF, where every member is the root; the broadcast's
// non-root section is probed on the world, where every member refuses
// alike (the root for its send side).
func TestMovementRecvSectionCheckedAtCall(t *testing.T) {
	err := mpi.Run(3, func(env *mpi.Env) error {
		w, self := env.CommWorld(), env.CommSelf()
		send := []float64{1, 2, 3, 4}
		started := func() uint64 {
			v, _ := env.PerfVar("coll.scheds_started")
			return uint64(v)
		}
		if err := w.Barrier(); err != nil { // registers the coll.* variables
			return err
		}
		before := started()
		if err := expectAll(w.Rank(), movementEntryPoints(self, send, make([]float64, 2), 4), mpi.ErrBuffer); err != nil {
			return err
		}
		if err := expectAll(w.Rank(), movementEntryPoints(self, send, []int32{0, 0, 0, 0}, 4), mpi.ErrType); err != nil {
			return err
		}
		if err := expectAll(w.Rank(), bcastEntryPoints(w, make([]float64, 2), 4), mpi.ErrBuffer); err != nil {
			return err
		}
		// A v-variant's sections are validated rank by rank: a
		// displacement that pushes the last one out of bounds.
		if err := self.Gatherv(send, 0, 4, mpi.DOUBLE, make([]float64, 4), 0, []int{4}, []int{1}, mpi.DOUBLE, 0); mpi.ClassOf(err) != mpi.ErrBuffer {
			return fmt.Errorf("rank %d gatherv past the end: %v", w.Rank(), err)
		}
		if got := started(); got != before {
			return fmt.Errorf("rank %d: refused calls armed %d schedules", w.Rank(), got-before)
		}
		// Accepted calls still work, on every entry point, and the
		// instance numbering stayed aligned for the world.
		recv := make([]float64, 4)
		if err := expectAll(w.Rank(), movementEntryPoints(self, send, recv, 4), mpi.ErrSuccess); err != nil {
			return err
		}
		if recv[3] != 4 {
			return fmt.Errorf("rank %d: self movement delivered %v", w.Rank(), recv)
		}
		buf := make([]float64, 4)
		if w.Rank() == 0 {
			copy(buf, send)
		}
		if err := expectAll(w.Rank(), bcastEntryPoints(w, buf, 4), mpi.ErrSuccess); err != nil {
			return err
		}
		if buf[3] != 4 {
			return fmt.Errorf("rank %d: bcast after refused calls = %v", w.Rank(), buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReductionInPlaceAndEmpty: the send and receive sections may be
// the same memory (the accumulator is the receive section itself), and
// a zero-count reduction completes on every entry point.
func TestReductionInPlaceAndEmpty(t *testing.T) {
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		buf := []float64{9, float64(w.Rank()), 1, 9}
		if err := w.Allreduce(buf, 1, buf, 1, 2, mpi.DOUBLE, mpi.SUM); err != nil {
			return err
		}
		if buf[0] != 9 || buf[1] != 6 || buf[2] != 4 || buf[3] != 9 {
			return fmt.Errorf("rank %d: in-place allreduce = %v", w.Rank(), buf)
		}
		scan := []int32{int32(w.Rank() + 1)}
		if err := w.Scan(scan, 0, scan, 0, 1, mpi.INT, mpi.PROD); err != nil {
			return err
		}
		want := int32(1)
		for r := 1; r <= w.Rank()+1; r++ {
			want *= int32(r)
		}
		if scan[0] != want {
			return fmt.Errorf("rank %d: in-place scan = %d, want %d", w.Rank(), scan[0], want)
		}
		// A strided receive section cannot be the accumulator; the
		// deposit goes through the typemap and leaves the holes alone.
		col, err := mpi.TypeVector(2, 1, 2, mpi.DOUBLE)
		if err != nil {
			return err
		}
		col.Commit()
		strided := []float64{float64(w.Rank()), -1, 1, -1}
		if err := w.Allreduce(strided, 0, strided, 0, 1, col, mpi.MAX); err != nil {
			return err
		}
		if strided[0] != 3 || strided[1] != -1 || strided[2] != 1 || strided[3] != -1 {
			return fmt.Errorf("rank %d: strided in-place allreduce = %v", w.Rank(), strided)
		}
		empty := []float64{}
		return expectAll(w.Rank(), reductionEntryPoints(w, empty, empty, 0, mpi.DOUBLE, mpi.SUM), mpi.ErrSuccess)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceAllocationBudget: after warm-up a blocking 256 KiB
// allreduce allocates a few kilobytes of bookkeeping per op across all
// four ranks — no operand-sized buffer anywhere (the any-boxed path
// allocated 8.4 MB here).
func TestAllreduceAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled frames at random")
	}
	const count, warm, ops = 32 << 10, 10, 50
	var before, after runtime.MemStats
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		send, recv := make([]float64, count), make([]float64, count)
		loop := func(n int) error {
			for i := 0; i < n; i++ {
				if err := w.Allreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM); err != nil {
					return err
				}
			}
			return w.Barrier()
		}
		if err := loop(warm); err != nil {
			return err
		}
		if w.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		if err := loop(ops); err != nil {
			return err
		}
		if w.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// TotalAlloc is process-wide: every rank's allocations, plus one
	// barrier's, land in the delta.
	if perOp := (after.TotalAlloc - before.TotalAlloc) / ops; perOp > 16<<10 {
		t.Fatalf("allreduce of %d doubles allocates %d B/op over 4 ranks, budget 16 KiB", count, perOp)
	}
}

// TestAllreduceBackToBackSlowRank: 200 allreduces with one rank
// dawdling between calls, so its partners are always a call ahead — the
// interleaving in which a sent-by-reference accumulator would be folded
// into while the slow rank still reads it. Run under -race; the values
// change every call so a stale or torn operand shows in the sums too.
func TestAllreduceBackToBackSlowRank(t *testing.T) {
	const count, calls = 4 << 10, 200
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		buf := make([]float64, count)
		for call := 0; call < calls; call++ {
			for i := range buf {
				buf[i] = float64(call + w.Rank())
			}
			if w.Rank() == 2 && call%8 == 0 {
				time.Sleep(200 * time.Microsecond)
			}
			if err := w.Allreduce(buf, 0, buf, 0, count, mpi.DOUBLE, mpi.SUM); err != nil {
				return err
			}
			if want := float64(4*call + 6); buf[0] != want || buf[count-1] != want {
				return fmt.Errorf("rank %d call %d: %v … %v, want %v", w.Rank(), call, buf[0], buf[count-1], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBytesReducedPerfVar: one 4-rank 256 KiB allreduce folds three
// quarters of the operand on every rank (the reduce-scatter halves what
// is left each round: 1/2 + 1/4), and the count surfaces through both
// PerfVar and PerfVars.
func TestBytesReducedPerfVar(t *testing.T) {
	const count = 32 << 10
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		send, recv := make([]float64, count), make([]float64, count)
		before := pv(env, "coll.bytes_reduced")
		if err := w.Allreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM); err != nil {
			return err
		}
		after := pv(env, "coll.bytes_reduced")
		if got := after - before; got != 8*count*3/4 {
			return fmt.Errorf("rank %d: coll.bytes_reduced grew by %d, want %d", w.Rank(), got, 8*count*3/4)
		}
		for _, v := range env.PerfVars() {
			if v.Name == "coll.bytes_reduced" && uint64(v.Value) != after {
				return fmt.Errorf("rank %d: PerfVars lists coll.bytes_reduced = %d; PerfVar says %d", w.Rank(), v.Value, after)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBytesReducedEveryRemainder: where the island folds an allreduce,
// each rank's coll.bytes_reduced grows by what the message schedules
// fold on that rank — sealed chan (NoIsland) and tcp, which count what
// their kernels return — at np 2–9, so for every remainder the pre-fold
// leaves, on both sides of the halving switch: below the eager limit
// (recursive doubling), and eight eager limits up (halving + doubling,
// over an odd count, so the reduce-scatter splits windows unevenly).
func TestBytesReducedEveryRemainder(t *testing.T) {
	const eager = 4 << 10
	counts := []int{37, eager + 3} // DOUBLEs: under one eager limit, and over eight
	for np := 2; np <= 9; np++ {
		var want [][]uint64 // by count, then rank: what sealed chan folded
		for _, row := range []struct {
			name string
			opt  mpi.RunOptions
		}{
			{"chan", mpi.RunOptions{NP: np, WrapDevice: mpi.NoIsland, EagerLimit: eager}},
			{"tcp", mpi.RunOptions{NP: np, Device: "tcp", EagerLimit: eager}},
			{"island", mpi.RunOptions{NP: np, EagerLimit: eager}},
		} {
			island := row.name == "island"
			got := [][]uint64{make([]uint64, np), make([]uint64, np)}
			err := mpi.RunWith(row.opt, func(env *mpi.Env) error {
				w := env.CommWorld()
				for i, count := range counts {
					send, recv := make([]float64, count), make([]float64, count)
					for e := range send {
						send[e] = float64(w.Rank() + e)
					}
					folds, lent, before := pv(env, "coll.island_folds"), pv(env, "core.sends_lent"), pv(env, "coll.bytes_reduced")
					if err := w.Allreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM); err != nil {
						return err
					}
					got[i][w.Rank()] = pv(env, "coll.bytes_reduced") - before
					if halved := pv(env, "core.sends_lent") > lent; halved != (i == 1 && !island) {
						return fmt.Errorf("%s np %d, %d DOUBLEs: halving schedule ran = %v", row.name, np, count, halved)
					}
					folded, err := foldsSince(env, w, folds)
					if err != nil {
						return err
					}
					if want := map[bool]uint64{true: 1}[island]; folded != want {
						return fmt.Errorf("%s np %d, %d DOUBLEs: %d island folds, want %d", row.name, np, count, folded, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			for i, count := range counts {
				for r := range got[i] {
					if got[i][r] != want[i][r] {
						t.Errorf("np %d, %d DOUBLEs, rank %d: coll.bytes_reduced grew by %d on %s, by %d on sealed chan", np, count, r, got[i][r], row.name, want[i][r])
					}
				}
			}
		}
	}
}

// TestAllreduceFormsAboveTheSwitch: above the eager limit, where the
// schedule lends windows of the accumulator and has windows of it filled
// in place, every form of the call — blocking, under a context,
// nonblocking, persistent (restarted, with new values each time) —
// gives the same sums, whatever memory the accumulator is: the receive
// section itself with the contribution read out of a separate send
// buffer, the one buffer of an in-place call, or a pooled frame packed
// from and unpacked into strided sections (which can be neither lent
// from nor deposited into). Power-of-two and odd sizes; over tcp and a
// chan job sealed without islands, where the schedule lends, and over a
// plain chan job ("island"), where the island folds every form and
// nothing is lent.
func TestAllreduceFormsAboveTheSwitch(t *testing.T) {
	const count = 70001 // 560 KB of DOUBLE — above the switch on either medium — and odd: every split is uneven
	strided, err := mpi.TypeVector(count, 1, 2, mpi.DOUBLE)
	if err != nil {
		t.Fatal(err)
	}
	strided.Commit()
	for _, row := range []struct {
		device string
		wrap   func(int, transport.Device) transport.Device
	}{{"chan", mpi.NoIsland}, {"tcp", nil}, {"island", nil}} {
		device, island := row.device, row.device == "island"
		for _, np := range []int{4, 3} {
			opt := mpi.RunOptions{NP: np, WrapDevice: row.wrap}
			if device == "tcp" {
				opt.Device = device
			}
			err := mpi.RunWith(opt, func(env *mpi.Env) error {
				w := env.CommWorld()
				folds := pv(env, "coll.island_folds")
				round := 0
				fill := func(buf []float64, stride int) {
					for i := 0; i < count; i++ {
						buf[i*stride] = float64((w.Rank()+1)*(i%7) + round)
					}
				}
				check := func(where string, buf []float64, stride int) error {
					for i := 0; i < count; i++ {
						if want := float64(np*(np+1)/2*(i%7) + np*round); buf[i*stride] != want {
							return fmt.Errorf("%s/np%d rank %d %s round %d: element %d = %v, want %v", device, np, w.Rank(), where, round, i, buf[i*stride], want)
						}
					}
					return nil
				}
				for _, sh := range []struct {
					name    string
					inPlace bool
				}{{"separate", false}, {"in place", true}} {
					send, recv := make([]float64, count), make([]float64, count)
					if sh.inPlace {
						send = recv
					}
					forms := map[string]func() error{
						"Allreduce": func() error { return w.Allreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM) },
						"Iallreduce+WaitCtx": func() error {
							return waitCtx(context.Background())(w.Iallreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM))
						},
						"Iallreduce": func() error {
							req, err := w.Iallreduce(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM)
							if err == nil {
								_, err = req.Wait()
							}
							return err
						},
					}
					for _, name := range []string{"Allreduce", "Iallreduce+WaitCtx", "Iallreduce"} {
						round++
						fill(send, 1)
						if err := forms[name](); err != nil {
							return err
						}
						if err := check(sh.name+" "+name, recv, 1); err != nil {
							return err
						}
						if !sh.inPlace && send[1] != float64((w.Rank()+1)+round) {
							return fmt.Errorf("%s %s: the send buffer was written", sh.name, name)
						}
					}
					p, err := w.AllreduceInit(send, 0, recv, 0, count, mpi.DOUBLE, mpi.SUM)
					if err != nil {
						return err
					}
					for i := 0; i < 4; i++ {
						round++
						fill(send, 1)
						if err := p.Start(); err != nil {
							return err
						}
						if _, err := p.Wait(); err != nil {
							return err
						}
						if err := check(sh.name+" AllreduceInit", recv, 1); err != nil {
							return err
						}
					}
					if err := p.Free(); err != nil {
						return err
					}
				}
				// One strided datatype on both sides: the contribution is
				// packed into a pooled accumulator, the result unpacked out
				// of it, and the holes of the receive buffer left alone.
				send, recv := make([]float64, 2*count), make([]float64, 2*count)
				for i := range recv {
					recv[i] = -1
				}
				p, err := w.AllreduceInit(send, 0, recv, 0, 1, strided, mpi.SUM)
				if err != nil {
					return err
				}
				for i := 0; i < 3; i++ {
					round++
					fill(send, 2)
					if i == 0 {
						err = w.Allreduce(send, 0, recv, 0, 1, strided, mpi.SUM)
					} else if err = p.Start(); err == nil {
						_, err = p.Wait()
					}
					if err != nil {
						return err
					}
					if err := check("strided", recv, 2); err != nil {
						return err
					}
					if recv[1] != -1 || recv[2*count-1] != -1 {
						return fmt.Errorf("strided: a hole of the receive buffer was written")
					}
				}
				if err := p.Free(); err != nil {
					return err
				}
				if lent := pv(env, "core.sends_lent"); lent == 0 && !island {
					return fmt.Errorf("rank %d: no window ever went out on loan", w.Rank())
				} else if lent != 0 && island {
					return fmt.Errorf("rank %d: %d windows went out on loan from an island", w.Rank(), lent)
				}
				// Three forms × two buffer shapes, four persistent
				// activations × two, three strided calls.
				if folded, err := foldsSince(env, w, folds); err != nil {
					return err
				} else if want := map[bool]uint64{true: 3*2 + 4*2 + 3}[island]; folded != want {
					return fmt.Errorf("%s: %d island folds, want %d", device, folded, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAllreduceSwitchPoint: which schedule runs is a property of the
// call, of the job's eager limit and of where the members live —
// halving + doubling (the only schedule that lends) from just above the
// eager limit when every member is a rank of one undecorated in-process
// job and the island does not take the call (a user-defined operation),
// from eight eager limits otherwise (tcp, or a chan job sealed without
// islands); recursive doubling below. A predefined operation on a plain
// chan job folds through the island at every size, and lends nothing.
// The 4 KiB rows run a job started at a lower limit: the switch follows
// the job's limit.
func TestAllreduceSwitchPoint(t *testing.T) {
	const eager, small = core.DefaultEagerLimit, 4 << 10
	userSum := mpi.NewOp(func(in, inout any) {
		a, b := in.([]float64), inout.([]float64)
		for i := range b {
			b[i] += a[i]
		}
	}, true)
	for _, row := range []struct {
		name  string
		opt   mpi.RunOptions
		op    *mpi.Op
		eager int
		floor int // 0: the island, never halving
	}{
		{"chan", mpi.RunOptions{NP: 4, WrapDevice: mpi.NoIsland}, mpi.SUM, eager, 8 * eager},
		{"tcp", mpi.RunOptions{NP: 4, Device: "tcp"}, mpi.SUM, eager, 8 * eager},
		{"chan, 4 KiB", mpi.RunOptions{NP: 4, WrapDevice: mpi.NoIsland, EagerLimit: small}, mpi.SUM, small, 8 * small},
		{"tcp, 4 KiB", mpi.RunOptions{NP: 4, Device: "tcp", EagerLimit: small}, mpi.SUM, small, 8 * small},
		{"island", mpi.RunOptions{NP: 4}, mpi.SUM, eager, 0},
		{"island, 4 KiB", mpi.RunOptions{NP: 4, EagerLimit: small}, mpi.SUM, small, 0},
		{"island, user op", mpi.RunOptions{NP: 4}, userSum, eager, eager + 8},
	} {
		err := mpi.RunWith(row.opt, func(env *mpi.Env) error {
			w := env.CommWorld()
			if got := pv(env, "core.eager_limit"); got != uint64(row.eager) {
				return fmt.Errorf("%s: core.eager_limit = %d, want %d", row.name, got, row.eager)
			}
			e := row.eager
			for _, size := range []int{e, e + 8, 8*e - 8, 8 * e} {
				buf := make([]float64, size/8)
				lent, folds := pv(env, "core.sends_lent"), pv(env, "coll.island_folds")
				if err := w.Allreduce(buf, 0, buf, 0, len(buf), mpi.DOUBLE, row.op); err != nil {
					return err
				}
				if halved := pv(env, "core.sends_lent") > lent; halved != (row.floor > 0 && size >= row.floor) {
					return fmt.Errorf("%s, %d bytes: halving schedule ran = %v, floor %d", row.name, size, halved, row.floor)
				}
				folded, err := foldsSince(env, w, folds)
				if err != nil {
					return err
				}
				if want := map[bool]uint64{true: 1}[row.floor == 0]; folded != want {
					return fmt.Errorf("%s, %d bytes: %d island folds, want %d", row.name, size, folded, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestObjectReductions: OBJECT operands (gob on the wire, so every fold
// changes the payload's size) ride the same schedules through the
// user-operation adaptor — here string concatenation, non-commutative,
// so rank order shows in the result.
func TestObjectReductions(t *testing.T) {
	concat := mpi.NewOp(func(in, inout any) {
		a, b := in.([]any), inout.([]any)
		for i := range b {
			b[i] = a[i].(string) + b[i].(string)
		}
	}, false)
	err := mpi.Run(4, func(env *mpi.Env) error {
		w := env.CommWorld()
		tagOf := func(r int) string { return string(rune('a' + r)) }
		mine := []any{tagOf(w.Rank()), tagOf(w.Rank()) + "!", tagOf(w.Rank()) + "?", "-"}
		all := "abcd"
		upTo := all[:w.Rank()+1]

		out := make([]any, 4)
		if err := w.Allreduce(mine, 0, out, 0, 4, mpi.OBJECT, concat); err != nil {
			return err
		}
		if out[0] != all || out[1] != "a!b!c!d!" || out[3] != "----" {
			return fmt.Errorf("rank %d: object allreduce = %v", w.Rank(), out)
		}
		out = make([]any, 4)
		if err := w.Reduce(mine, 0, out, 0, 4, mpi.OBJECT, concat, 2); err != nil {
			return err
		}
		if w.Rank() == 2 && out[0] != all {
			return fmt.Errorf("object reduce at root = %v", out)
		}
		out = make([]any, 4)
		if err := w.Scan(mine, 0, out, 0, 4, mpi.OBJECT, concat); err != nil {
			return err
		}
		if out[0] != upTo {
			return fmt.Errorf("rank %d: object scan = %v, want %q", w.Rank(), out, upTo)
		}
		out = make([]any, 4)
		if err := w.Exscan(mine, 0, out, 0, 4, mpi.OBJECT, concat); err != nil {
			return err
		}
		if w.Rank() > 0 && out[0] != all[:w.Rank()] {
			return fmt.Errorf("rank %d: object exscan = %v", w.Rank(), out)
		}
		if w.Rank() == 0 && out[0] != nil {
			return fmt.Errorf("rank 0: exscan touched the receive buffer: %v", out)
		}
		seg := make([]any, 1)
		if err := w.ReduceScatter(mine, 0, seg, 0, []int{1, 1, 1, 1}, mpi.OBJECT, concat); err != nil {
			return err
		}
		want := []string{all, "a!b!c!d!", "a?b?c?d?", "----"}[w.Rank()]
		if seg[0] != want {
			return fmt.Errorf("rank %d: object reduce_scatter = %v, want %q", w.Rank(), seg, want)
		}

		// Any slice is an OBJECT buffer, but the user function always
		// folds []any operands; the result lands in the buffer's type.
		strs := []string{tagOf(w.Rank()), "-"}
		strOut := make([]string, 2)
		if err := w.Allreduce(strs, 0, strOut, 0, 2, mpi.OBJECT, concat); err != nil {
			return err
		}
		if strOut[0] != all || strOut[1] != "----" {
			return fmt.Errorf("rank %d: []string object allreduce = %q", w.Rank(), strOut)
		}
		tickets := []reduceTicket{{Tag: tagOf(w.Rank()), N: w.Rank() + 1}}
		ticketOut := make([]reduceTicket, 1)
		if err := w.Reduce(tickets, 0, ticketOut, 0, 1, mpi.OBJECT, mergeTickets, 0); err != nil {
			return err
		}
		if w.Rank() == 0 && ticketOut[0] != (reduceTicket{Tag: all, N: 10}) {
			return fmt.Errorf("[]struct object reduce at root = %+v", ticketOut)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type reduceTicket struct {
	Tag string
	N   int
}

func init() { mpi.RegisterObject(reduceTicket{}) }

// mergeTickets concatenates tags and sums counts; it asserts []any for
// both operands, as every OBJECT user function must.
var mergeTickets = mpi.NewOp(func(in, inout any) {
	a, b := in.([]any), inout.([]any)
	for i := range b {
		x, y := a[i].(reduceTicket), b[i].(reduceTicket)
		b[i] = reduceTicket{Tag: x.Tag + y.Tag, N: x.N + y.N}
	}
}, false)
