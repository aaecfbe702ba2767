package typed_test

import (
	"errors"
	"fmt"
	"testing"

	"gompi/mpi"
	"gompi/mpi/typed"
)

// TestLogicalAndBitwiseReductions: a typed Allreduce with mpiJava's
// MPI.LOR and MPI.LXOR (over bool and, by the non-zero-is-true
// convention, the integer types, whose result is 1 or 0) and MPI.BAND
// and MPI.BXOR (over the integer types) gives every member the fold of
// every member's contribution taken in rank order, at an odd and an
// even group size.
func TestLogicalAndBitwiseReductions(t *testing.T) {
	for _, np := range []int{3, 4} {
		run(t, np, func(env *mpi.Env) error {
			w := env.CommWorld()
			truth := func(rank, i int) bool { return (rank*5+i)%3 == 0 }
			return errors.Join(
				foldRow(w, "bool LOr", typed.LOr[bool](), truth, func(a, b bool) bool { return a || b }),
				foldRow(w, "bool LXor", typed.LXor[bool](), truth, func(a, b bool) bool { return a != b }),
				integerRows[byte](w, "byte"),
				integerRows[int16](w, "int16"),
				integerRows[int32](w, "int32"),
				integerRows[int64](w, "int64"),
			)
		})
	}
}

// integerRows checks the four operations over one integer type. Every
// third element is zero, so the logical rows see both truths.
func integerRows[T typed.Integer](w *mpi.Intracomm, name string) error {
	elem := func(rank, i int) T {
		if (rank+i)%3 == 0 {
			return 0
		}
		return T(rank*37+i*11) ^ T(i)<<rank
	}
	bit := func(b bool) T {
		if b {
			return 1
		}
		return 0
	}
	return errors.Join(
		foldRow(w, name+" LOr", typed.LOr[T](), elem, func(a, b T) T { return bit(a != 0 || b != 0) }),
		foldRow(w, name+" LXor", typed.LXor[T](), elem, func(a, b T) T { return bit((a != 0) != (b != 0)) }),
		foldRow(w, name+" BAnd", typed.BAnd[T](), elem, func(a, b T) T { return a & b }),
		foldRow(w, name+" BXor", typed.BXor[T](), elem, func(a, b T) T { return a ^ b }),
	)
}

// foldRow reduces every member's contribution elem(rank, i), i < 5,
// with op and checks each element against fold applied over the ranks
// in order.
func foldRow[T typed.Primitive](w *mpi.Intracomm, name string, op typed.Op[T], elem func(rank, i int) T, fold func(a, b T) T) error {
	const n = 5
	send, got := make([]T, n), make([]T, n)
	for i := range send {
		send[i] = elem(w.Rank(), i)
	}
	if err := typed.Allreduce(w, send, got, op); err != nil {
		return fmt.Errorf("rank %d: %s: %w", w.Rank(), name, err)
	}
	for i, g := range got {
		want := elem(0, i)
		for r := 1; r < w.Size(); r++ {
			want = fold(want, elem(r, i))
		}
		if g != want {
			return fmt.Errorf("rank %d: %s element %d = %v, want %v", w.Rank(), name, i, g, want)
		}
	}
	return nil
}

// TestOpRawIsTheClassicOp: Raw hands a typed operation to the classic
// API — each predefined constructor's is the named classic operation,
// and a typed user operation's folds a classic Allreduce.
func TestOpRawIsTheClassicOp(t *testing.T) {
	for _, c := range []struct {
		got, want *mpi.Op
	}{
		{typed.Sum[int32]().Raw(), mpi.SUM},
		{typed.Prod[float64]().Raw(), mpi.PROD},
		{typed.Max[int16]().Raw(), mpi.MAX},
		{typed.Min[byte]().Raw(), mpi.MIN},
		{typed.LAnd[bool]().Raw(), mpi.LAND},
		{typed.LOr[bool]().Raw(), mpi.LOR},
		{typed.LXor[int64]().Raw(), mpi.LXOR},
		{typed.BAnd[int32]().Raw(), mpi.BAND},
		{typed.BOr[byte]().Raw(), mpi.BOR},
		{typed.BXor[int16]().Raw(), mpi.BXOR},
		{typed.Op[int32]{}.Raw(), nil},
	} {
		if c.got != c.want {
			t.Errorf("Raw = %v, want %v", c.got, c.want)
		}
	}
	maxAbs := typed.OpFunc(func(in, inout []int32) {
		for i, v := range in {
			inout[i] = max(inout[i], v, -v, -inout[i])
		}
	}, true)
	run(t, 3, func(env *mpi.Env) error {
		w := env.CommWorld()
		send, got := []int32{int32(-3 * w.Rank())}, []int32{0}
		if err := w.Allreduce(send, 0, got, 0, 1, mpi.INT, maxAbs.Raw()); err != nil {
			return err
		}
		if got[0] != 6 {
			return fmt.Errorf("rank %d: classic Allreduce over Raw folded %d, want 6", w.Rank(), got[0])
		}
		return nil
	})
}
