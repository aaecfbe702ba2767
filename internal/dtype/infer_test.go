package dtype

import (
	"reflect"
	"testing"
)

func TestInferDirectClasses(t *testing.T) {
	cases := []struct {
		v     any
		class Class
	}{
		{byte(0), U8},
		{false, Bool},
		{int16(0), I16},
		{int32(0), I32},
		{rune(0), I32},
		{int64(0), I64},
		{float32(0), F32},
		{float64(0), F64},
	}
	for _, c := range cases {
		inf := Infer(reflect.TypeOf(c.v))
		if !inf.Direct || inf.Class != c.class {
			t.Errorf("Infer(%T) = %+v, want direct %s", c.v, inf, c.class)
		}
	}
}

func TestInferObjRouted(t *testing.T) {
	type point struct{ X, Y float64 }
	for _, v := range []any{point{}, "", &point{}, int(0), uint64(0), []int32{}} {
		inf := Infer(reflect.TypeOf(v))
		if inf.Direct || inf.Reinterp || inf.Class != Obj {
			t.Errorf("Infer(%T) = %+v, want non-direct Obj", v, inf)
		}
	}
}

func TestInferReinterpNamedPrimitives(t *testing.T) {
	type meters float64
	type count int32
	type flag bool
	type tiny byte
	cases := []struct {
		v     any
		class Class
	}{
		{meters(0), F64},
		{count(0), I32},
		{flag(false), Bool},
		{tiny(0), U8},
	}
	for _, c := range cases {
		inf := Infer(reflect.TypeOf(c.v))
		if inf.Direct || !inf.Reinterp || inf.Class != c.class {
			t.Errorf("Infer(%T) = %+v, want reinterp %s", c.v, inf, c.class)
		}
	}
}

func TestInferAnyIsDirectObj(t *testing.T) {
	rt := reflect.TypeOf((*any)(nil)).Elem()
	inf := Infer(rt)
	if !inf.Direct || inf.Class != Obj {
		t.Errorf("Infer(any) = %+v, want direct Obj", inf)
	}
}

func TestInferRegistersForGob(t *testing.T) {
	type autoReg struct{ N int32 }
	Infer(reflect.TypeOf(autoReg{}))
	// Round-trip through the object codec without an explicit Register.
	wire, err := EncodeObjects([]any{autoReg{N: 7}})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := DecodeObjects(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := objs[0].(autoReg); !ok || got.N != 7 {
		t.Fatalf("round-trip got %#v", objs)
	}
}

func TestInferCached(t *testing.T) {
	rt := reflect.TypeOf(float64(0))
	a, b := Infer(rt), Infer(rt)
	if a != b {
		t.Fatalf("cache miss: %+v vs %+v", a, b)
	}
}
