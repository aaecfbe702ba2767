package typed_test

import (
	"testing"

	"gompi/mpi"
	"gompi/mpi/typed"
)

// The receive-into path: Recv, Irecv and RecvInit land a slice of a
// native or named-primitive element type straight in the caller's
// buffer, and decode Obj-routed ones into it. The tests below are named
// after it.

func TestTypedRecvInto(t *testing.T) {
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			return typed.Send(w, []int32{10, 20, 30}, 1, 1)
		}
		buf := make([]int32, 3)
		st, err := typed.Recv(w, buf, 0, 1)
		if err != nil {
			return err
		}
		if buf[0] != 10 || buf[2] != 30 {
			t.Errorf("Recv %v", buf)
		}
		if n := typed.Count[int32](st); n != 3 {
			t.Errorf("count %d", n)
		}
		return nil
	})
}

func TestTypedIrecvIntoPreposted(t *testing.T) {
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 1 {
			// Pre-post the zero-copy receive, then signal readiness.
			buf := make([]float64, 4)
			req, err := typed.Irecv(w, buf, 0, 2)
			if err != nil {
				return err
			}
			if err := typed.SendOne(w, byte(1), 0, 3); err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			if buf[3] != 4.5 {
				t.Errorf("preposted Irecv %v", buf)
			}
			return nil
		}
		if _, _, err := typed.RecvOne[byte](w, 1, 3); err != nil {
			return err
		}
		return typed.Send(w, []float64{1.5, 2.5, 3.5, 4.5}, 1, 2)
	})
}

func TestTypedRecvIntoTruncate(t *testing.T) {
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			return typed.Send(w, []int64{1, 2, 3, 4}, 1, 4)
		}
		small := make([]int64, 2)
		_, err := typed.Recv(w, small, 0, 4)
		if err == nil || mpi.ClassOf(err) != mpi.ErrTruncate {
			t.Errorf("truncate error %v", err)
		}
		if small[0] != 1 || small[1] != 2 {
			t.Errorf("truncated prefix %v", small)
		}
		return nil
	})
}

// TestTypedTruncateUnboxesObjects pins the truncate contract for
// Obj-routed element types: the deposited whole elements must reach the
// caller's buffer even though the receive reports ErrTruncate.
func TestTypedTruncateUnboxesObjects(t *testing.T) {
	type pt struct{ X, Y int32 }
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			return typed.Send(w, []pt{{1, 2}, {3, 4}, {5, 6}}, 1, 7)
		}
		small := make([]pt, 2)
		_, err := typed.Recv(w, small, 0, 7)
		if err == nil || mpi.ClassOf(err) != mpi.ErrTruncate {
			t.Errorf("truncate error %v", err)
		}
		if small[0] != (pt{1, 2}) || small[1] != (pt{3, 4}) {
			t.Errorf("deposited elements missing from the typed buffer: %v", small)
		}
		return nil
	})
}

// TestTypedNamedPrimitiveWire pins the acceptance criterion: celsius
// slices round-trip on the F64 wire format through the typed API and
// interoperate with native float64 peers — no OBJECT/gob involved.
func TestTypedNamedPrimitiveWire(t *testing.T) {
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			if err := typed.Send(w, []celsius{36.6, -40}, 1, 5); err != nil {
				return err
			}
			// Receive native into named through the zero-copy path.
			got := make([]celsius, 2)
			if _, err := typed.Recv(w, got, 1, 6); err != nil {
				return err
			}
			if got[0] != 100 || got[1] != 0 {
				t.Errorf("celsius Recv %v", got)
			}
			return nil
		}
		// The peer reads the same message as plain float64: proof the
		// wire format is F64, not gob.
		native := make([]float64, 2)
		if _, err := typed.Recv(w, native, 0, 5); err != nil {
			return err
		}
		if native[0] != 36.6 || native[1] != -40 {
			t.Errorf("native view of celsius message %v", native)
		}
		return typed.Send(w, []float64{100, 0}, 0, 6)
	})
}
