package testsuite

import (
	"gompi/mpi"
)

// The datatype programs (9).

func init() {
	register(Program{Name: "contig", Category: CatDatatype, NP: 2, Run: progContig})
	register(Program{Name: "vector", Category: CatDatatype, NP: 2, Run: progVector})
	register(Program{Name: "indexed", Category: CatDatatype, NP: 2, Run: progIndexed})
	register(Program{Name: "hvector", Category: CatDatatype, NP: 2, Run: progHvector})
	register(Program{Name: "struct", Category: CatDatatype, NP: 2, Run: progStruct})
	register(Program{Name: "object", Category: CatDatatype, NP: 2, Run: progObject})
	register(Program{Name: "packunpack", Category: CatDatatype, NP: 2, Run: progPackUnpack})
	register(Program{Name: "getcount", Category: CatDatatype, NP: 2, Run: progGetCount})
	register(Program{Name: "extent", Category: CatDatatype, NP: 1, Run: progExtent})
}

// progContig: a contiguous derived type is interchangeable with a plain
// count.
func progContig(env *mpi.Env) error {
	w := env.CommWorld()
	t, err := mpi.TypeContiguous(4, mpi.INT)
	if err != nil {
		return err
	}
	t.Commit()
	if w.Rank() == 0 {
		buf := []int32{1, 2, 3, 4, 5, 6, 7, 8}
		return w.Send(buf, 0, 2, t, 1, 5)
	}
	in := make([]int32, 8)
	st, err := w.Recv(in, 0, 8, mpi.INT, 0, 5)
	if err != nil {
		return err
	}
	if err := expectEq("contig recv count", st.GetCount(mpi.INT), 8); err != nil {
		return err
	}
	return expectInts("contig payload", in, []int32{1, 2, 3, 4, 5, 6, 7, 8})
}

// progVector: send a strided "column" of a linearized 4x4 matrix
// (paper §2.2 — the multidimensional-array use case).
func progVector(env *mpi.Env) error {
	const n = 4
	w := env.CommWorld()
	col, err := mpi.TypeVector(n, 1, n, mpi.DOUBLE)
	if err != nil {
		return err
	}
	col.Commit()
	if w.Rank() == 0 {
		mat := make([]float64, n*n)
		for i := range mat {
			mat[i] = float64(i)
		}
		// Column 2: elements 2, 6, 10, 14.
		return w.Send(mat, 2, 1, col, 1, 6)
	}
	in := make([]float64, n)
	if _, err := w.Recv(in, 0, n, mpi.DOUBLE, 0, 6); err != nil {
		return err
	}
	for i, want := range []float64{2, 6, 10, 14} {
		if err := expectEq("vector column element", in[i], want); err != nil {
			return err
		}
	}
	return nil
}

// progIndexed: gather an upper-triangular section through an indexed
// type.
func progIndexed(env *mpi.Env) error {
	w := env.CommWorld()
	// Rows of lengths 3,2,1 from a 3x3 matrix: displacements 0,4,8.
	t, err := mpi.TypeIndexed([]int{3, 2, 1}, []int{0, 4, 8}, mpi.INT)
	if err != nil {
		return err
	}
	t.Commit()
	if w.Rank() == 0 {
		mat := []int32{1, 2, 3, 0, 5, 6, 0, 0, 9}
		return w.Send(mat, 0, 1, t, 1, 7)
	}
	in := make([]int32, 6)
	st, err := w.Recv(in, 0, 6, mpi.INT, 0, 7)
	if err != nil {
		return err
	}
	if err := expectEq("indexed count", st.GetCount(mpi.INT), 6); err != nil {
		return err
	}
	return expectInts("indexed payload", in, []int32{1, 2, 3, 5, 6, 9})
}

// progHvector: element-unit strides decoupled from the base extent.
func progHvector(env *mpi.Env) error {
	w := env.CommWorld()
	t, err := mpi.TypeHvector(3, 2, 5, mpi.SHORT)
	if err != nil {
		return err
	}
	t.Commit()
	if w.Rank() == 0 {
		buf := make([]int16, 15)
		for i := range buf {
			buf[i] = int16(i)
		}
		return w.Send(buf, 0, 1, t, 1, 8)
	}
	in := make([]int16, 6)
	if _, err := w.Recv(in, 0, 6, mpi.SHORT, 0, 8); err != nil {
		return err
	}
	want := []int16{0, 1, 5, 6, 10, 11}
	for i := range want {
		if err := expectEq("hvector element", in[i], want[i]); err != nil {
			return err
		}
	}
	return nil
}

// progStruct: same-base struct (the mpiJava restriction) with an
// explicit UB marker controlling the extent.
func progStruct(env *mpi.Env) error {
	w := env.CommWorld()
	// Two ints at 0, one int at 3, UB at 5 => extent 5 with holes.
	t, err := mpi.TypeStruct(
		[]int{2, 1, 1},
		[]int{0, 3, 5},
		[]*mpi.Datatype{mpi.INT, mpi.INT, mpi.UB},
	)
	if err != nil {
		return err
	}
	t.Commit()
	if err := expectEq("struct extent", t.Extent(), 5); err != nil {
		return err
	}
	if err := expectEq("struct size", t.Size(), 3); err != nil {
		return err
	}
	if w.Rank() == 0 {
		buf := make([]int32, 10)
		for i := range buf {
			buf[i] = int32(i)
		}
		return w.Send(buf, 0, 2, t, 1, 9)
	}
	in := make([]int32, 6)
	if _, err := w.Recv(in, 0, 6, mpi.INT, 0, 9); err != nil {
		return err
	}
	// Items at base 0 and 5: elements {0,1,3} and {5,6,8}.
	return expectInts("struct payload", in, []int32{0, 1, 3, 5, 6, 8})
}

type suiteMsg struct {
	ID   int
	Text string
	Vals []float64
}

// progObject: the paper's §2.2 extension — a buffer of serializable
// objects travelling as MPI.OBJECT.
func progObject(env *mpi.Env) error {
	mpi.RegisterObject(suiteMsg{})
	w := env.CommWorld()
	if w.Rank() == 0 {
		buf := []any{
			suiteMsg{ID: 1, Text: "hello", Vals: []float64{1, 2}},
			suiteMsg{ID: 2, Text: "world", Vals: []float64{3}},
		}
		return w.Send(buf, 0, 2, mpi.OBJECT, 1, 10)
	}
	in := make([]any, 2)
	st, err := w.Recv(in, 0, 2, mpi.OBJECT, 0, 10)
	if err != nil {
		return err
	}
	if err := expectEq("object count", st.GetCount(mpi.OBJECT), 2); err != nil {
		return err
	}
	m0, ok := in[0].(suiteMsg)
	if !ok {
		return failf("object 0: wrong type %T", in[0])
	}
	if m0.ID != 1 || m0.Text != "hello" || len(m0.Vals) != 2 {
		return failf("object 0: got %+v", m0)
	}
	m1 := in[1].(suiteMsg)
	if m1.Text != "world" {
		return failf("object 1: got %+v", m1)
	}
	return nil
}

// progPackUnpack: MPI_Pack/Unpack round trip through a PACKED send, with
// an OBJECT section between two fixed-size ones: Unpack must step past
// exactly that section so the one after it can be read.
func progPackUnpack(env *mpi.Env) error {
	w := env.CommWorld()
	if w.Rank() == 0 {
		ints := []int32{7, 8, 9}
		words := []string{"a", "b"}
		dbls := []float64{1.5, 2.5}
		size1, err := w.PackSize(3, mpi.INT)
		if err != nil {
			return err
		}
		size2, err := w.PackSize(2, mpi.DOUBLE)
		if err != nil {
			return err
		}
		// PackSize is Undefined for OBJECT: size that section by hand.
		out := make([]byte, size1+size2+256)
		pos, err := w.Pack(ints, 0, 3, mpi.INT, out, 0)
		if err != nil {
			return err
		}
		pos, err = w.Pack(words, 0, 2, mpi.OBJECT, out, pos)
		if err != nil {
			return err
		}
		pos, err = w.Pack(dbls, 0, 2, mpi.DOUBLE, out, pos)
		if err != nil {
			return err
		}
		return w.Send(out, 0, pos, mpi.PACKED, 1, 11)
	}
	st, err := w.Probe(0, 11)
	if err != nil {
		return err
	}
	in := make([]byte, st.Bytes())
	if _, err := w.Recv(in, 0, len(in), mpi.PACKED, 0, 11); err != nil {
		return err
	}
	ints := make([]int32, 3)
	words := make([]string, 2)
	dbls := make([]float64, 2)
	pos, err := w.Unpack(in, 0, ints, 0, 3, mpi.INT)
	if err != nil {
		return err
	}
	if pos, err = w.Unpack(in, pos, words, 0, 2, mpi.OBJECT); err != nil {
		return err
	}
	if pos, err = w.Unpack(in, pos, dbls, 0, 2, mpi.DOUBLE); err != nil {
		return err
	}
	if pos != len(in) {
		return failf("unpack ended at %d of %d bytes", pos, len(in))
	}
	if err := expectInts("unpacked ints", ints, []int32{7, 8, 9}); err != nil {
		return err
	}
	if words[0] != "a" || words[1] != "b" {
		return failf("unpacked objects: got %q", words)
	}
	if dbls[0] != 1.5 || dbls[1] != 2.5 {
		return failf("unpacked doubles: got %v", dbls)
	}
	return nil
}

// progGetCount: partial receives and GetCount/GetElements semantics.
func progGetCount(env *mpi.Env) error {
	w := env.CommWorld()
	pair, err := mpi.TypeContiguous(2, mpi.INT)
	if err != nil {
		return err
	}
	pair.Commit()
	if w.Rank() == 0 {
		buf := []int32{1, 2, 3, 4, 5, 6}
		// Send 3 ints: 1.5 "pairs".
		if err := w.Send(buf, 0, 3, mpi.INT, 1, 12); err != nil {
			return err
		}
		return w.Send(buf, 0, 6, mpi.INT, 1, 13)
	}
	in := make([]int32, 6)
	st, err := w.Recv(in, 0, 3, pair, 0, 12)
	if err != nil {
		return err
	}
	if err := expectEq("partial GetElements", st.GetElements(pair), 3); err != nil {
		return err
	}
	if err := expectEq("partial GetCount is undefined", st.GetCount(pair), mpi.Undefined); err != nil {
		return err
	}
	st, err = w.Recv(in, 0, 3, pair, 0, 13)
	if err != nil {
		return err
	}
	if err := expectEq("full GetCount", st.GetCount(pair), 3); err != nil {
		return err
	}
	return expectEq("full GetElements", st.GetElements(pair), 6)
}

// progExtent: size/extent/bounds of nested derived types.
func progExtent(env *mpi.Env) error {
	v, err := mpi.TypeVector(3, 2, 4, mpi.DOUBLE)
	if err != nil {
		return err
	}
	if err := expectEq("vector size", v.Size(), 6); err != nil {
		return err
	}
	// Last block starts at 8, two elements -> ub 10.
	if err := expectEq("vector extent", v.Extent(), 10); err != nil {
		return err
	}
	if err := expectEq("vector lb", v.Lb(), 0); err != nil {
		return err
	}
	c, err := mpi.TypeContiguous(2, v)
	if err != nil {
		return err
	}
	if err := expectEq("nested size", c.Size(), 12); err != nil {
		return err
	}
	if err := expectEq("nested extent", c.Extent(), 20); err != nil {
		return err
	}
	if !mpi.INT.Committed() {
		return failf("basic type must be committed")
	}
	return nil
}
