package typed_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"gompi/mpi"
	"gompi/mpi/typed"
)

// run fails the test if any rank errors.
func run(t *testing.T, np int, fn func(*mpi.Env) error) {
	t.Helper()
	if err := mpi.Run(np, fn); err != nil {
		t.Fatal(err)
	}
}

func TestTypeOfInference(t *testing.T) {
	cases := []struct {
		got, want *mpi.Datatype
	}{
		{typed.TypeOf[byte](), mpi.BYTE},
		{typed.TypeOf[bool](), mpi.BOOLEAN},
		{typed.TypeOf[int16](), mpi.SHORT},
		{typed.TypeOf[int32](), mpi.INT},
		{typed.TypeOf[rune](), mpi.INT},
		{typed.TypeOf[int64](), mpi.LONG},
		{typed.TypeOf[float32](), mpi.FLOAT},
		{typed.TypeOf[float64](), mpi.DOUBLE},
		{typed.TypeOf[struct{ X, Y float64 }](), mpi.OBJECT},
		{typed.TypeOf[*int32](), mpi.OBJECT},
		{typed.TypeOf[string](), mpi.OBJECT},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: inferred %s, want %s", i, c.got.Name(), c.want.Name())
		}
	}
	// Named primitives share their underlying type's memory layout and
	// stay on its wire format: the slice is reinterpreted in place, so
	// `type celsius float64` travels as DOUBLE, not OBJECT/gob.
	if typed.TypeOf[celsius]() != mpi.DOUBLE {
		t.Errorf("named float64 inferred as %s, want DOUBLE", typed.TypeOf[celsius]().Name())
	}
	// The registry caches: repeated inference returns the same handle.
	if typed.TypeOf[float64]() != typed.TypeOf[float64]() {
		t.Error("TypeOf not cached")
	}
}

func TestSendRecvPrimitives(t *testing.T) {
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		switch w.Rank() {
		case 0:
			if err := typed.Send(w, []float64{1.5, -2.5, 3.25}, 1, 1); err != nil {
				return err
			}
			if err := typed.Send(w, []int32{7, 8, 9, 10}, 1, 2); err != nil {
				return err
			}
			if err := typed.Send(w, []bool{true, false, true}, 1, 3); err != nil {
				return err
			}
			return typed.SendOne(w, int64(42), 1, 4)
		case 1:
			f := make([]float64, 3)
			st, err := typed.Recv(w, f, 0, 1)
			if err != nil {
				return err
			}
			if n := typed.Count[float64](st); n != 3 {
				t.Errorf("float64 count %d, want 3", n)
			}
			if !reflect.DeepEqual(f, []float64{1.5, -2.5, 3.25}) {
				t.Errorf("float64 payload %v", f)
			}
			// Receive into a sub-slice: slicing replaces offset/count.
			i := make([]int32, 8)
			if _, err := typed.Recv(w, i[2:6], 0, 2); err != nil {
				return err
			}
			if !reflect.DeepEqual(i, []int32{0, 0, 7, 8, 9, 10, 0, 0}) {
				t.Errorf("int32 sub-slice payload %v", i)
			}
			b := make([]bool, 3)
			if _, err := typed.Recv(w, b, 0, 3); err != nil {
				return err
			}
			if !reflect.DeepEqual(b, []bool{true, false, true}) {
				t.Errorf("bool payload %v", b)
			}
			v, _, err := typed.RecvOne[int64](w, 0, 4)
			if err != nil {
				return err
			}
			if v != 42 {
				t.Errorf("RecvOne got %d, want 42", v)
			}
		}
		return nil
	})
}

func TestZeroLengthSlices(t *testing.T) {
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		switch w.Rank() {
		case 0:
			if err := typed.Send(w, []float64{}, 1, 5); err != nil {
				return err
			}
			return typed.Send(w, []float64(nil), 1, 6)
		case 1:
			st, err := typed.Recv(w, []float64{}, 0, 5)
			if err != nil {
				return err
			}
			if n := typed.Count[float64](st); n != 0 {
				t.Errorf("zero-length count %d, want 0", n)
			}
			if _, err := typed.Recv(w, []float64(nil), 0, 6); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestWildcards(t *testing.T) {
	run(t, 3, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() != 0 {
			return typed.SendOne(w, int32(w.Rank()), 0, 40+w.Rank())
		}
		seen := map[int32]bool{}
		for i := 0; i < 2; i++ {
			v, st, err := typed.RecvOne[int32](w, mpi.AnySource, mpi.AnyTag)
			if err != nil {
				return err
			}
			if int(v) != st.Source || st.Tag != 40+st.Source {
				t.Errorf("wildcard recv: value %d, source %d, tag %d", v, st.Source, st.Tag)
			}
			seen[v] = true
		}
		if !seen[1] || !seen[2] {
			t.Errorf("wildcard receives saw %v, want both senders", seen)
		}
		return nil
	})
}

// TestTypedPointToPointOnIntercomm: an intercommunicator is a Peer, so
// the typed sends and receives reach its remote group through the Base
// accessor it inherits. Local rank r of each side exchanges with remote
// rank r.
func TestTypedPointToPointOnIntercomm(t *testing.T) {
	run(t, 4, func(env *mpi.Env) error {
		w := env.CommWorld()
		side := w.Rank() % 2
		local, err := w.Split(side, w.Rank())
		if err != nil {
			return err
		}
		ic, err := local.CreateIntercomm(&w.Comm, 0, 1-side, 5)
		if err != nil {
			return err
		}
		var p typed.Peer = ic
		out, in := []int64{int64(w.Rank()), int64(side)}, make([]int64, 2)
		if side == 0 {
			if err := typed.Send(p, out, p.Rank(), 1); err != nil {
				return err
			}
		}
		if _, err := typed.Recv(p, in, p.Rank(), 1); err != nil {
			return err
		}
		if side == 1 {
			if err := typed.Send(p, out, p.Rank(), 1); err != nil {
				return err
			}
		}
		if want := []int64{int64(2*p.Rank() + 1 - side), int64(1 - side)}; !reflect.DeepEqual(in, want) {
			t.Errorf("world rank %d: received %v, want %v", w.Rank(), in, want)
		}
		return nil
	})
}

type particle struct {
	ID   int64
	Pos  [3]float64
	Name string
}

type celsius float64

func TestStructRoundTrip(t *testing.T) {
	want := []particle{
		{ID: 1, Pos: [3]float64{0.5, 1.5, 2.5}, Name: "alpha"},
		{ID: 2, Pos: [3]float64{-1, 0, 1}, Name: "beta"},
	}
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		switch w.Rank() {
		case 0:
			return typed.Send(w, want, 1, 7)
		case 1:
			got := make([]particle, 2)
			st, err := typed.Recv(w, got, 0, 7)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("struct round-trip %+v, want %+v", got, want)
			}
			if n := typed.Count[particle](st); n != 2 {
				t.Errorf("struct count %d, want 2", n)
			}
		}
		return nil
	})
}

func TestNamedPrimitiveRoundTrip(t *testing.T) {
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		switch w.Rank() {
		case 0:
			return typed.Send(w, []celsius{36.6, -40}, 1, 8)
		case 1:
			got := make([]celsius, 2)
			if _, err := typed.Recv(w, got, 0, 8); err != nil {
				return err
			}
			if got[0] != 36.6 || got[1] != -40 {
				t.Errorf("named-primitive round-trip %v", got)
			}
		}
		return nil
	})
}

func TestRecvCtxCancel(t *testing.T) {
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() != 0 {
			return nil // never sends: rank 0's receive must block
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		buf := make([]int32, 1)
		start := time.Now()
		req, err := typed.Irecv(w, buf, 1, 99)
		if err != nil {
			return err
		}
		st, err := req.WaitCtx(ctx)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Irecv + WaitCtx error %v, want DeadlineExceeded", err)
		}
		if st == nil || !st.TestCancelled() {
			t.Errorf("Irecv + WaitCtx status %+v, want cancelled", st)
		}
		if time.Since(start) > 5*time.Second {
			t.Error("Irecv + WaitCtx did not return promptly on cancellation")
		}
		return nil
	})
}

func TestWaitCtxDeliversWhenMessageArrives(t *testing.T) {
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		switch w.Rank() {
		case 0:
			time.Sleep(20 * time.Millisecond)
			return typed.Send(w, []int64{5}, 1, 11)
		case 1:
			req, err := typed.Irecv(w, make([]int64, 1), 0, 11)
			if err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			st, err := req.WaitCtx(ctx)
			if err != nil {
				return err
			}
			if st.TestCancelled() {
				t.Error("WaitCtx cancelled a matched receive")
			}
		}
		return nil
	})
}

func TestIsendIrecv(t *testing.T) {
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		switch w.Rank() {
		case 0:
			req, err := typed.Isend(w, []float32{1, 2, 3}, 1, 12)
			if err != nil {
				return err
			}
			_, err = req.Wait()
			return err
		case 1:
			buf := make([]float32, 3)
			req, err := typed.Irecv(w, buf, 0, 12)
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			if !reflect.DeepEqual(buf, []float32{1, 2, 3}) {
				t.Errorf("Irecv payload %v", buf)
			}
		}
		return nil
	})
}

// OBJECT-routed buffers keep non-blocking semantics: the receive decodes
// into the caller's slice at Wait time.
func TestIrecvBoxed(t *testing.T) {
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		switch w.Rank() {
		case 0:
			return typed.Send(w, []particle{{ID: 9, Name: "gamma"}}, 1, 13)
		case 1:
			buf := make([]particle, 1)
			req, err := typed.Irecv(w, buf, 0, 13)
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			if buf[0].ID != 9 || buf[0].Name != "gamma" {
				t.Errorf("boxed Irecv payload %+v", buf[0])
			}
		}
		return nil
	})
}

// TestObjIrecvCompletedByClassicSets: an OBJECT-routed typed Irecv
// completed only through mpi.WaitAll, or only through mpi.WaitAny, fills
// the typed buffer — whichever call completes the request deposits.
func TestObjIrecvCompletedByClassicSets(t *testing.T) {
	complete := map[string]func([]*mpi.Request) error{
		"WaitAll": func(reqs []*mpi.Request) error { _, err := mpi.WaitAll(reqs); return err },
		"WaitAny": func(reqs []*mpi.Request) error {
			for range reqs {
				st, err := mpi.WaitAny(reqs)
				if err != nil {
					return err
				}
				reqs[st.Index] = nil // a nil request is inactive
			}
			return nil
		},
	}
	for name, wait := range complete {
		t.Run(name, func(t *testing.T) {
			run(t, 2, func(env *mpi.Env) error {
				w := env.CommWorld()
				if w.Rank() == 0 {
					if err := typed.Send(w, []particle{{ID: 3, Name: "x"}, {ID: 4, Name: "y"}}, 1, 31); err != nil {
						return err
					}
					return typed.Send(w, []*particle{{ID: 5, Name: "z"}}, 1, 32)
				}
				vals, ptrs := make([]particle, 2), make([]*particle, 1)
				a, err := typed.Irecv(w, vals, 0, 31)
				if err != nil {
					return err
				}
				b, err := typed.Irecv(w, ptrs, 0, 32)
				if err != nil {
					return err
				}
				if err := wait([]*mpi.Request{a, b}); err != nil {
					return err
				}
				if vals[0].ID != 3 || vals[1].Name != "y" || ptrs[0] == nil || ptrs[0].ID != 5 {
					t.Errorf("%s left the typed buffers at %+v, %+v", name, vals, ptrs[0])
				}
				return nil
			})
		})
	}
}

func TestCollectives(t *testing.T) {
	const np = 4
	run(t, np, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()

		// Bcast.
		buf := make([]int32, 3)
		if rank == 2 {
			copy(buf, []int32{10, 20, 30})
		}
		if err := typed.Bcast(w, buf, 2); err != nil {
			return err
		}
		if !reflect.DeepEqual(buf, []int32{10, 20, 30}) {
			t.Errorf("rank %d: Bcast %v", rank, buf)
		}
		v, err := typed.BcastOne(w, float64(rank)*1.5, 1)
		if err != nil {
			return err
		}
		if v != 1.5 {
			t.Errorf("rank %d: BcastOne %v, want 1.5", rank, v)
		}

		// Gather / Allgather.
		mine := []int64{int64(rank), int64(rank * rank)}
		var all []int64
		if rank == 0 {
			all = make([]int64, 2*np)
		}
		if err := typed.Gather(w, mine, all, 0); err != nil {
			return err
		}
		if rank == 0 {
			want := []int64{0, 0, 1, 1, 2, 4, 3, 9}
			if !reflect.DeepEqual(all, want) {
				t.Errorf("Gather %v, want %v", all, want)
			}
		}
		every := make([]int64, 2*np)
		if err := typed.Allgather(w, mine, every); err != nil {
			return err
		}
		if !reflect.DeepEqual(every, []int64{0, 0, 1, 1, 2, 4, 3, 9}) {
			t.Errorf("rank %d: Allgather %v", rank, every)
		}

		// Scatter.
		var parts []float64
		if rank == 0 {
			parts = []float64{0, 1, 2, 3, 4, 5, 6, 7}
		}
		got := make([]float64, 2)
		if err := typed.Scatter(w, parts, got, 0); err != nil {
			return err
		}
		if got[0] != float64(2*rank) || got[1] != float64(2*rank+1) {
			t.Errorf("rank %d: Scatter %v", rank, got)
		}
		return nil
	})
}

func TestBoxedCollectives(t *testing.T) {
	const np = 3
	run(t, np, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()

		// Struct broadcast.
		buf := make([]particle, 1)
		if rank == 0 {
			buf[0] = particle{ID: 77, Name: "root"}
		}
		if err := typed.Bcast(w, buf, 0); err != nil {
			return err
		}
		if buf[0].ID != 77 || buf[0].Name != "root" {
			t.Errorf("rank %d: boxed Bcast %+v", rank, buf[0])
		}

		// Struct gather.
		mine := []particle{{ID: int64(rank), Name: "p"}}
		var all []particle
		if rank == 1 {
			all = make([]particle, np)
		}
		if err := typed.Gather(w, mine, all, 1); err != nil {
			return err
		}
		if rank == 1 {
			for r, p := range all {
				if p.ID != int64(r) {
					t.Errorf("boxed Gather[%d] = %+v", r, p)
				}
			}
		}
		return nil
	})
}

func TestReductions(t *testing.T) {
	const np = 4
	run(t, np, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()

		sum, err := typed.ReduceOne(w, float64(rank+1), typed.Sum[float64](), 0)
		if err != nil {
			return err
		}
		if rank == 0 && sum != 10 {
			t.Errorf("ReduceOne sum %v, want 10", sum)
		}

		maxv, err := typed.AllreduceOne(w, int32(rank*3), typed.Max[int32]())
		if err != nil {
			return err
		}
		if maxv != 9 {
			t.Errorf("rank %d: AllreduceOne max %d, want 9", rank, maxv)
		}

		// Slice reduction with a logical op on bool.
		land := make([]bool, 2)
		if err := typed.Allreduce(w, []bool{true, rank != 2}, land, typed.LAnd[bool]()); err != nil {
			return err
		}
		if !land[0] || land[1] {
			t.Errorf("rank %d: LAnd %v, want [true false]", rank, land)
		}

		// Bitwise on integers.
		bor, err := typed.AllreduceOne(w, int64(1)<<rank, typed.BOr[int64]())
		if err != nil {
			return err
		}
		if bor != 0b1111 {
			t.Errorf("rank %d: BOr %b, want 1111", rank, bor)
		}

		// Inclusive and exclusive prefix sums.
		scan := make([]int32, 1)
		if err := typed.Scan(w, []int32{int32(rank + 1)}, scan, typed.Sum[int32]()); err != nil {
			return err
		}
		want := int32((rank + 1) * (rank + 2) / 2)
		if scan[0] != want {
			t.Errorf("rank %d: Scan %d, want %d", rank, scan[0], want)
		}
		ex := make([]int32, 1)
		if err := typed.Exscan(w, []int32{int32(rank + 1)}, ex, typed.Sum[int32]()); err != nil {
			return err
		}
		if rank > 0 {
			if wantEx := int32(rank * (rank + 1) / 2); ex[0] != wantEx {
				t.Errorf("rank %d: Exscan %d, want %d", rank, ex[0], wantEx)
			}
		}

		// User-defined op: elementwise hypot, commutative.
		hypot := typed.OpFunc(func(in, inout []float64) {
			for i := range inout {
				inout[i] = math.Hypot(in[i], inout[i])
			}
		}, true)
		out := make([]float64, 1)
		if err := typed.Allreduce(w, []float64{3}, out, hypot); err != nil {
			return err
		}
		if want := math.Sqrt(9 * np); math.Abs(out[0]-want) > 1e-12 {
			t.Errorf("rank %d: user op %v, want %v", rank, out[0], want)
		}
		return nil
	})
}

// The typed and classic APIs interoperate on the same communicator:
// matching is by element class, not by which surface posted the call.
func TestClassicInterop(t *testing.T) {
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		switch w.Rank() {
		case 0:
			if err := typed.Send(w, []float64{6.25}, 1, 21); err != nil {
				return err
			}
			buf := make([]int32, 2)
			_, err := typed.Recv(w, buf, 1, 22)
			if err != nil {
				return err
			}
			if buf[0] != 4 || buf[1] != 5 {
				t.Errorf("typed recv of classic send: %v", buf)
			}
			return nil
		case 1:
			buf := make([]float64, 1)
			if _, err := w.Recv(buf, 0, 1, mpi.DOUBLE, 0, 21); err != nil {
				return err
			}
			if buf[0] != 6.25 {
				t.Errorf("classic recv of typed send: %v", buf[0])
			}
			return w.Send([]int32{4, 5}, 0, 2, mpi.INT, 0, 22)
		}
		return nil
	})
}

// TestObjectAcrossDevices carries OBJECT messages over every in-process
// device: the one-element stream of objects workers send to an
// AnySource receiver (a classic []any buffer and a typed []particle
// one), and one 1,024-element message.
func TestObjectAcrossDevices(t *testing.T) {
	const np, big = 4, 1024
	mpi.RegisterObject(particle{})
	of := func(rank, i int) particle {
		return particle{ID: int64(rank*big + i), Pos: [3]float64{float64(i), 0.5, -1}, Name: "p"}
	}
	for _, device := range []string{"chan", "tcp", "shm"} {
		t.Run(device, func(t *testing.T) {
			err := mpi.RunWith(mpi.RunOptions{NP: np, Device: device}, func(env *mpi.Env) error {
				w := env.CommWorld()
				rank := w.Rank()
				if rank != 0 {
					if err := w.Send([]any{of(rank, 0)}, 0, 1, mpi.OBJECT, 0, 1); err != nil {
						return err
					}
					if err := typed.Send(w, []particle{of(rank, 1)}, 0, 2); err != nil {
						return err
					}
					if rank != 1 {
						return nil
					}
					many := make([]particle, big)
					for i := range many {
						many[i] = of(rank, i)
					}
					return typed.Send(w, many, 0, 3)
				}
				// Snippet 3's recvObject: one element from any source.
				from := make([]int, np)
				for range np - 1 {
					buf := make([]any, 1)
					st, err := w.Recv(buf, 0, 1, mpi.OBJECT, mpi.AnySource, 1)
					if err != nil {
						return err
					}
					if got, ok := buf[0].(particle); !ok || got != of(st.Source, 0) {
						return fmt.Errorf("classic object from %d: %#v", st.Source, buf[0])
					}
					from[st.Source]++
				}
				for range np - 1 {
					buf := make([]particle, 1)
					st, err := typed.Recv(w, buf, mpi.AnySource, 2)
					if err != nil {
						return err
					}
					if buf[0] != of(st.Source, 1) {
						return fmt.Errorf("typed object from %d: %+v", st.Source, buf[0])
					}
					from[st.Source]++
				}
				if !reflect.DeepEqual(from, []int{0, 2, 2, 2}) {
					return fmt.Errorf("objects per source %v, want two from each worker", from)
				}
				many := make([]particle, big)
				st, err := typed.Recv(w, many, 1, 3)
				if err != nil {
					return err
				}
				if n := st.GetCount(mpi.OBJECT); n != big {
					return fmt.Errorf("received %d objects, want %d", n, big)
				}
				for i, p := range many {
					if p != of(1, i) {
						return fmt.Errorf("object %d of %d: %+v", i, big, p)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
