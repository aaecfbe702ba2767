package mpi_test

import (
	"fmt"
	"reflect"
	"testing"

	"gompi/mpi"
	"gompi/mpi/typed"
)

// TestBufferArgumentsStayOnCallerStack: a buffer argument is read once
// and never kept, so the caller's conversion of a slice to any stays on
// its stack. Every call below converts its []float64 afresh, as a
// caller of the paper's API does. The blocking point-to-point calls
// and reductions, classic and typed, allocate nothing per call but a
// Sendrecv's Status; an Isend or Irecv pays its Request and, at Wait,
// its Status, and nothing for its buffer. Bcast is logged only: its
// root packs a fresh payload every call (ROADMAP, "An 8-byte Bcast
// allocates").
func TestBufferArgumentsStayOnCallerStack(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	const calls = 1000
	type op struct {
		name string
		want float64 // allocations per call, both ranks together
		call func(w *mpi.Intracomm, peer, j int, buf, out []float64) error
	}
	ops := []op{
		{"Send+Recv", 0, func(w *mpi.Intracomm, peer, _ int, buf, out []float64) error {
			if w.Rank() == 0 {
				if err := w.Send(buf, 0, 1, mpi.DOUBLE, peer, 1); err != nil {
					return err
				}
			}
			_, err := w.Recv(out, 0, 1, mpi.DOUBLE, mpi.AnySource, 1)
			if w.Rank() == 1 && err == nil {
				err = w.Send(buf, 0, 1, mpi.DOUBLE, peer, 1)
			}
			return err
		}},
		// A Status on each rank: see Sendrecv.
		{"Sendrecv", 2, func(w *mpi.Intracomm, peer, _ int, buf, out []float64) error {
			_, err := w.Sendrecv(buf, 0, 1, mpi.DOUBLE, peer, 2, out, 0, 1, mpi.DOUBLE, peer, 2)
			return err
		}},
		{"Allreduce", 0, func(w *mpi.Intracomm, _, _ int, buf, out []float64) error {
			return w.Allreduce(buf, 0, out, 0, 1, mpi.DOUBLE, mpi.SUM)
		}},
		// The root alternates, so that neither rank runs calls ahead
		// and piles its contributions up unexpected at the other.
		{"Reduce", 0, func(w *mpi.Intracomm, _, j int, buf, out []float64) error {
			return w.Reduce(buf, 0, out, 0, 1, mpi.DOUBLE, mpi.SUM, j%2)
		}},
		{"typed Send+Recv", 0, func(w *mpi.Intracomm, peer, _ int, buf, out []float64) error {
			if w.Rank() == 0 {
				if err := typed.Send(w, buf, peer, 3); err != nil {
					return err
				}
			}
			_, err := typed.Recv(w, out, peer, 3)
			if w.Rank() == 1 && err == nil {
				err = typed.Send(w, buf, peer, 3)
			}
			return err
		}},
		{"typed Allreduce", 0, func(w *mpi.Intracomm, _, _ int, buf, out []float64) error {
			return typed.Allreduce(w, buf, out, typed.Sum[float64]())
		}},
		// One rank sends, the other receives: a Request and a Status
		// each. The sender alternates, keeping the ranks in step.
		{"Isend/Irecv+Wait", 4, func(w *mpi.Intracomm, peer, j int, buf, out []float64) error {
			var r *mpi.Request
			var err error
			if w.Rank() == j%2 {
				r, err = w.Isend(buf, 0, 1, mpi.DOUBLE, peer, 4)
			} else {
				r, err = w.Irecv(out, 0, 1, mpi.DOUBLE, peer, 4)
			}
			if err == nil {
				_, err = r.Wait()
			}
			return err
		}},
		{"Bcast", -1, func(w *mpi.Intracomm, _, _ int, buf, _ []float64) error {
			return w.Bcast(buf, 0, 1, mpi.DOUBLE, 0)
		}},
	}
	per := make([]float64, len(ops)) // written by rank 0 only
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		peer := 1 - w.Rank()
		buf, out := []float64{float64(w.Rank() + 1)}, []float64{0}
		for i, o := range ops {
			for j := 0; j < 10; j++ { // build plans, warm the pools
				if err := o.call(w, peer, j, buf, out); err != nil {
					return fmt.Errorf("%s: %w", o.name, err)
				}
			}
			if err := w.Barrier(); err != nil {
				return err
			}
			before := mallocs()
			if err := w.Barrier(); err != nil {
				return err
			}
			for j := 0; j < calls; j++ {
				if err := o.call(w, peer, j, buf, out); err != nil {
					return fmt.Errorf("%s: %w", o.name, err)
				}
			}
			if err := w.Barrier(); err != nil {
				return err
			}
			if w.Rank() == 0 {
				per[i] = float64(mallocs()-before) / calls
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range ops {
		t.Logf("%s: %.3f allocations per call", o.name, per[i])
		// A tenth of an allocation per call is the barriers' and the
		// runtime's background, far below one per call.
		if o.want >= 0 && per[i] > o.want+0.1 {
			t.Errorf("%s: %.3f allocations per call, want %.0f", o.name, per[i], o.want)
		}
	}
}

type celsius float64

type bufTicket struct {
	ID   int
	Hops []string
}

func init() { mpi.RegisterObject(bufTicket{}) }

// TestBufferResolution pins what dtype.BufOf resolves a buffer to at
// the binding's entry points: a named primitive slice travels as its
// class, interoperating with the native slice, and a []struct under
// OBJECT is encoded from and decoded into the caller's slice.
func TestBufferResolution(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			if err := w.Send([]celsius{36.6, -40}, 0, 2, mpi.DOUBLE, 1, 1); err != nil {
				return err
			}
			back := make([]celsius, 2)
			if _, err := w.Recv(back, 0, 2, mpi.DOUBLE, 1, 2); err != nil {
				return err
			}
			if back[0] != 1.5 || back[1] != 2.5 {
				return fmt.Errorf("[]celsius received %v", back)
			}
			tickets := []bufTicket{{1, []string{"a"}}, {2, nil}, {3, []string{"b", "c"}}}
			return w.Send(tickets, 1, 2, mpi.OBJECT, 1, 3)
		}
		got := make([]float64, 2)
		st, err := w.Recv(got, 0, 2, mpi.DOUBLE, 0, 1)
		if err != nil {
			return err
		}
		if got[0] != 36.6 || got[1] != -40 || st.GetCount(mpi.DOUBLE) != 2 || st.Bytes() != 16 {
			return fmt.Errorf("[]celsius sent as %v, count %d, %d bytes", got, st.GetCount(mpi.DOUBLE), st.Bytes())
		}
		if err := w.Send([]float64{1.5, 2.5}, 0, 2, mpi.DOUBLE, 0, 2); err != nil {
			return err
		}
		tickets := make([]bufTicket, 3)
		if _, err := w.Recv(tickets, 1, 2, mpi.OBJECT, 0, 3); err != nil {
			return err
		}
		want := []bufTicket{{}, {2, nil}, {3, []string{"b", "c"}}}
		if !reflect.DeepEqual(tickets, want) {
			return fmt.Errorf("[]bufTicket received %+v, want %+v", tickets, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
