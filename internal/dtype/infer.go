package dtype

import (
	"reflect"
	"sync"
)

// Datatype inference — the registry underneath mpi/typed's TypeOf[T].
// A Go element type maps onto the engine in one of three ways:
//
//   - the seven native buffer element types (byte, bool, int16, int32,
//     int64, float32, float64 — rune and uint8 being aliases) map to
//     their storage class directly: a slice of such a type IS one of the
//     engine's buffer types and travels zero-copy through Pack/Unpack;
//   - named primitives (`type Celsius float64`) reinterpret in place to
//     their underlying class (BufOf resolves their slices);
//   - every other type (structs, pointers, strings, maps, …) maps to the
//     Obj class: a slice of it is an OBJECT buffer as it stands and its
//     elements travel gob-encoded, exactly like the paper's MPI.OBJECT
//     extension (§2.2).
//
// The mapping is computed once per reflect.Type and cached; Obj-class
// types are gob-registered on first inference so callers never need the
// explicit Register step the classic API requires.

// Inferred describes how a Go element type maps onto the engine.
type Inferred struct {
	// Class is the storage class buffers of the type travel as.
	Class Class
	// Direct reports that a slice of the type is one of the engine's own
	// buffer types ([]byte, []int32, …, or []any).
	Direct bool
	// Reinterp reports a named primitive type (`type Celsius float64`):
	// a slice of it shares its underlying type's memory layout and is
	// resolved to the class's native slice (BufOf) to stay on its wire
	// format instead of OBJECT/gob. A slice of a type that is neither
	// Direct nor Reinterp is an Obj-class buffer as it stands; Infer
	// gob-registers its element type.
	Reinterp bool
}

var inferCache sync.Map // reflect.Type -> Inferred

// directClasses keys the native element types by their reflect.Type.
var directClasses = map[reflect.Type]Class{
	reflect.TypeOf(byte(0)):    U8,
	reflect.TypeOf(false):      Bool,
	reflect.TypeOf(int16(0)):   I16,
	reflect.TypeOf(int32(0)):   I32,
	reflect.TypeOf(int64(0)):   I64,
	reflect.TypeOf(float32(0)): F32,
	reflect.TypeOf(float64(0)): F64,
}

// Infer maps a Go element type to its storage class, caching the result.
// Obj-class concrete types are registered for gob serialization as a
// side effect, so inferred object buffers round-trip without an explicit
// Register call.
func Infer(rt reflect.Type) Inferred {
	if v, ok := inferCache.Load(rt); ok {
		return v.(Inferred)
	}
	inf := inferOne(rt)
	if !inf.Direct && !inf.Reinterp {
		if seed, ok := gobSeed(rt); ok {
			safeRegister(seed)
		}
	}
	inferCache.Store(rt, inf)
	return inf
}

// safeRegister absorbs gob's registration panics (two distinct types
// sharing one pkg.name, e.g. same-named local types): the colliding type
// stays unregistered and the failure surfaces as an encode error on the
// first send instead of crashing the process.
func safeRegister(seed any) {
	defer func() { _ = recover() }()
	Register(seed)
}

func inferOne(rt reflect.Type) Inferred {
	if rt.Kind() == reflect.Interface && rt.NumMethod() == 0 {
		// []any carries any registered type: nothing to register.
		return Inferred{Class: Obj, Direct: true}
	}
	if c, ok := directClasses[rt]; ok {
		return Inferred{Class: c, Direct: true}
	}
	if c, ok := ReinterpClass(rt); ok {
		// Named primitive: identical memory layout to its underlying
		// type, so buffers reinterpret in place and stay on the
		// class's wire format (no gob).
		return Inferred{Class: c, Reinterp: true}
	}
	return Inferred{Class: Obj, Direct: false}
}

// gobSeed builds the zero value to gob-register for an Obj-routed type.
// gob flattens pointers to their base type, so registration follows
// pointers first; types gob cannot register at all (channels, funcs) are
// skipped and fail cleanly at pack time instead.
func gobSeed(rt reflect.Type) (any, bool) {
	for rt.Kind() == reflect.Pointer {
		rt = rt.Elem()
	}
	switch rt.Kind() {
	case reflect.Chan, reflect.Func, reflect.UnsafePointer, reflect.Interface:
		return nil, false
	}
	return reflect.New(rt).Elem().Interface(), true
}
