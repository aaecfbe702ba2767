package typed_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"gompi/mpi"
	"gompi/mpi/typed"
)

func TestTypedFileCollectiveRoundTrip(t *testing.T) {
	const ranks, per = 4, 300
	path := filepath.Join(t.TempDir(), "typed.bin")
	err := mpi.Run(ranks, func(env *mpi.Env) error {
		w := env.CommWorld()
		f, err := typed.OpenFile[float64](w, path, mpi.ModeCreate|mpi.ModeRdwr)
		if err != nil {
			return err
		}
		defer f.Close()
		mine := make([]float64, per)
		for i := range mine {
			mine[i] = float64(w.Rank()) + float64(i)/per
		}
		if _, err := f.WriteAllAt(mine, w.Rank()*per); err != nil {
			return err
		}
		back := make([]float64, per)
		st, err := f.ReadAllAt(back, w.Rank()*per)
		if err != nil {
			return err
		}
		if typed.Count[float64](st) != per || !reflect.DeepEqual(mine, back) {
			return fmt.Errorf("rank %d: typed round trip mismatch (count %d)",
				w.Rank(), typed.Count[float64](st))
		}
		// Cross-rank check through an independent read: rank r reads
		// its right neighbour's first element.
		next := (w.Rank() + 1) % ranks
		one := make([]float64, 1)
		if err := w.Barrier(); err != nil {
			return err
		}
		if _, err := f.ReadAt(one, next*per); err != nil {
			return err
		}
		if one[0] != float64(next) {
			return fmt.Errorf("rank %d: neighbour element = %v, want %v", w.Rank(), one[0], float64(next))
		}
		// The nonblocking forms, past the blocking ones' extent: the
		// read completes with the count the file held.
		for i := range mine {
			mine[i] = -mine[i]
		}
		req, err := f.IwriteAllAt(mine, (ranks+w.Rank())*per)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		clear(back)
		if req, err = f.IreadAllAt(back, (ranks+w.Rank())*per); err != nil {
			return err
		}
		if st, err = req.Wait(); err != nil {
			return err
		}
		if typed.Count[float64](st) != per || !reflect.DeepEqual(mine, back) {
			return fmt.Errorf("rank %d: nonblocking typed round trip mismatch (count %d)",
				w.Rank(), typed.Count[float64](st))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypedFileStridedViewAndNamedPrimitive(t *testing.T) {
	// Named primitives ride their class's wire format into files, and
	// a strided typed view interleaves ranks element-by-element.
	type Celsius float64
	const ranks = 3
	path := filepath.Join(t.TempDir(), "celsius.bin")
	err := mpi.Run(ranks, func(env *mpi.Env) error {
		w := env.CommWorld()
		f, err := typed.OpenFile[Celsius](w, path, mpi.ModeCreate|mpi.ModeRdwr)
		if err != nil {
			return err
		}
		defer f.Close()
		// Round-robin view: rank r sees file elements r, r+3, r+6, ...
		// — one element per ranks-wide tile, the stride pinned with an
		// explicit UB marker.
		ft, err := mpi.TypeStruct([]int{1, 1}, []int{0, ranks},
			[]*mpi.Datatype{mpi.DOUBLE, mpi.UB})
		if err != nil {
			return err
		}
		ft.Commit()
		if err := f.SetView(w.Rank(), ft); err != nil {
			return err
		}
		mine := []Celsius{Celsius(10 * w.Rank()), Celsius(10*w.Rank() + 1)}
		if _, err := f.WriteAllAt(mine, 0); err != nil {
			return err
		}
		back := make([]Celsius, 2)
		if _, err := f.ReadAllAt(back, 0); err != nil {
			return err
		}
		if !reflect.DeepEqual(mine, back) {
			return fmt.Errorf("rank %d: named-primitive round trip mismatch: %v vs %v", w.Rank(), mine, back)
		}
		// The interleaved whole: read it back through the identity view
		// on rank 0 after everyone has written.
		if err := w.Barrier(); err != nil {
			return err
		}
		if err := f.SetView(0, mpi.DOUBLE); err != nil {
			return err
		}
		all := make([]Celsius, 2*ranks)
		if _, err := f.ReadAt(all, 0); err != nil {
			return err
		}
		want := make([]Celsius, 2*ranks)
		for r := 0; r < ranks; r++ {
			want[r] = Celsius(10 * r)
			want[ranks+r] = Celsius(10*r + 1)
		}
		if !reflect.DeepEqual(all, want) {
			return fmt.Errorf("rank %d: interleaved file = %v, want %v", w.Rank(), all, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypedFileRejectsObjectTypes(t *testing.T) {
	type point struct{ X, Y int }
	err := mpi.Run(1, func(env *mpi.Env) error {
		w := env.CommWorld()
		if _, err := typed.OpenFile[point](w, filepath.Join(t.TempDir(), "obj.bin"), mpi.ModeCreate|mpi.ModeRdwr); err == nil {
			return fmt.Errorf("OpenFile accepted a struct element type")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
