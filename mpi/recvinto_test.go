package mpi_test

import (
	"testing"

	"gompi/mpi"
)

// The receive-into path: Recv, Irecv and RecvInit land a contiguous
// fixed-size section straight in the caller's buffer wherever the
// datatype allows, and stage and unpack every other shape. The tests
// below are named after it.

type fahrenheit float64

func TestRecvIntoBasic(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			return w.Send([]float64{1.5, 2.5, 3.5}, 0, 3, mpi.DOUBLE, 1, 1)
		}
		buf := make([]float64, 3)
		st, err := w.Recv(buf, 0, 3, mpi.DOUBLE, 0, 1)
		if err != nil {
			return err
		}
		if buf[0] != 1.5 || buf[2] != 3.5 {
			t.Errorf("Recv buffer %v", buf)
		}
		if n := st.GetCount(mpi.DOUBLE); n != 3 {
			t.Errorf("GetCount %d, want 3", n)
		}
		return nil
	})
}

func TestRecvIntoTruncateSemantics(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			return w.Send(make([]int32, 8), 0, 8, mpi.INT, 1, 2)
		}
		buf := make([]int32, 4)
		st, err := w.Recv(buf, 0, 4, mpi.INT, 0, 2)
		if err == nil || mpi.ClassOf(err) != mpi.ErrTruncate {
			t.Errorf("Recv overflow error %v, want ErrTruncate class", err)
		}
		// The buffer section is filled to capacity; Bytes reports the
		// full incoming message, matching the classic path.
		if st != nil && st.GetCount(mpi.INT) != 4 {
			t.Errorf("truncated count %d, want 4", st.GetCount(mpi.INT))
		}
		if st != nil && st.Bytes() != 32 {
			t.Errorf("truncated Bytes %d, want full 32", st.Bytes())
		}
		return nil
	})
}

// TestRecvIntoMisalignedPayload pins parity with the classic path: a
// payload that is not a whole number of elements is a wire-format
// error (ErrIntern class), not a silent partial deposit.
func TestRecvIntoMisalignedPayload(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			return w.Send(make([]byte, 9), 0, 9, mpi.BYTE, 1, 9)
		}
		buf := make([]float64, 2)
		_, err := w.Recv(buf, 0, 2, mpi.DOUBLE, 0, 9)
		if err == nil || mpi.ClassOf(err) != mpi.ErrIntern {
			t.Errorf("misaligned Recv error %v, want ErrIntern class", err)
		}
		return nil
	})
}

func TestIrecvIntoOffsetSection(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			return w.Send([]int64{7, 8}, 0, 2, mpi.LONG, 1, 3)
		}
		buf := []int64{-1, -1, -1, -1}
		req, err := w.Irecv(buf, 1, 2, mpi.LONG, 0, 3)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		want := []int64{-1, 7, 8, -1}
		for i := range want {
			if buf[i] != want[i] {
				t.Errorf("section deposit %v, want %v", buf, want)
				break
			}
		}
		return nil
	})
}

// TestRecvIntoStridedFallback checks that non-contiguous datatypes fall
// back to the staging path transparently.
func TestRecvIntoStridedFallback(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		col, err := mpi.TypeVector(3, 1, 2, mpi.DOUBLE)
		if err != nil {
			return err
		}
		col.Commit()
		if w.Rank() == 0 {
			return w.Send([]float64{1, 2, 3}, 0, 3, mpi.DOUBLE, 1, 4)
		}
		buf := make([]float64, 6)
		if _, err := w.Recv(buf, 0, 1, col, 0, 4); err != nil {
			return err
		}
		if buf[0] != 1 || buf[2] != 2 || buf[4] != 3 {
			t.Errorf("strided Recv %v", buf)
		}
		return nil
	})
}

// TestClassicNamedPrimitive checks the ROADMAP item end to end in the
// classic API: `type fahrenheit float64` buffers travel on the DOUBLE
// wire format in both directions and interoperate with native buffers.
func TestClassicNamedPrimitive(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			// Named out, native back.
			if err := w.Send([]fahrenheit{98.6, 212}, 0, 2, mpi.DOUBLE, 1, 5); err != nil {
				return err
			}
			in := make([]fahrenheit, 2)
			if _, err := w.Recv(in, 0, 2, mpi.DOUBLE, 1, 6); err != nil {
				return err
			}
			if in[0] != 32 || in[1] != -40 {
				t.Errorf("named recv %v", in)
			}
			return nil
		}
		in := make([]float64, 2)
		if _, err := w.Recv(in, 0, 2, mpi.DOUBLE, 0, 5); err != nil {
			return err
		}
		if in[0] != 98.6 || in[1] != 212 {
			t.Errorf("native recv of named send %v", in)
		}
		return w.Send([]fahrenheit{32, -40}, 0, 2, mpi.DOUBLE, 0, 6)
	})
}

// TestRecvIntoNamedPrimitive combines both fast paths: a named
// primitive buffer receiving through the zero-copy into path.
func TestRecvIntoNamedPrimitive(t *testing.T) {
	run2(t, func(env *mpi.Env) error {
		w := env.CommWorld()
		if w.Rank() == 0 {
			return w.Send([]float64{451}, 0, 1, mpi.DOUBLE, 1, 7)
		}
		buf := make([]fahrenheit, 1)
		if _, err := w.Recv(buf, 0, 1, mpi.DOUBLE, 0, 7); err != nil {
			return err
		}
		if buf[0] != 451 {
			t.Errorf("named Recv %v", buf)
		}
		return nil
	})
}
