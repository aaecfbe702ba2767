package dtype

import (
	"reflect"
	"sync"
	"unsafe"
)

// Slice-reinterpretation fast paths. Two independent tricks live here:
//
//   - NativeView reinterprets a slice of a *named* primitive type
//     ([]Celsius where `type Celsius float64`) as its native class slice
//     ([]float64). The memory layout of a defined type is identical to
//     its underlying type, so this is a pure header rewrite — valid on
//     every architecture — and it keeps named primitives on their
//     class's wire format instead of falling into OBJECT/gob.
//
//   - rawBytes reinterprets a native element slice as raw bytes. The
//     wire format is little-endian, so Pack and Unpack copy each run of
//     a section as its memory image, through the same walk on every
//     host; a big-endian host then swaps the copied bytes in place. On a
//     little-endian host a contiguous section is therefore one memcpy,
//     and ByteViewRange lends that image out without copying at all.

// hostLE reports whether the host stores integers little-endian, i.e.
// whether in-memory representation equals the wire encoding.
var hostLE = func() bool {
	x := uint16(0x1122)
	return *(*byte)(unsafe.Pointer(&x)) == 0x22
}()

// kindClasses maps primitive reflect kinds onto engine storage classes.
// Only kinds with an exact wire class qualify; int/uint (platform-sized)
// and the unsigned fixed widths beyond uint8 have no class and stay on
// the OBJECT path.
var kindClasses = map[reflect.Kind]Class{
	reflect.Uint8:   U8,
	reflect.Bool:    Bool,
	reflect.Int16:   I16,
	reflect.Int32:   I32,
	reflect.Int64:   I64,
	reflect.Float32: F32,
	reflect.Float64: F64,
}

// ReinterpClass reports the storage class a defined (named) primitive
// element type reinterprets to, and whether it qualifies.
func ReinterpClass(rt reflect.Type) (Class, bool) {
	c, ok := kindClasses[rt.Kind()]
	return c, ok
}

// viewCache memoizes per concrete slice type whether and how NativeView
// reinterprets it, so the reflect walk runs once per type.
var viewCache sync.Map // reflect.Type -> func(any) any (nil entry: no view)

// NativeView returns buf reinterpreted as its native class slice when
// buf is a slice of a named primitive type ([]Celsius -> []float64,
// sharing storage), and buf unchanged otherwise. The second result
// reports whether a reinterpretation happened.
func NativeView(buf any) (any, bool) {
	switch buf.(type) {
	case nil, []byte, []bool, []int16, []int32, []int64, []float32, []float64, []any:
		return buf, false
	}
	rt := reflect.TypeOf(buf)
	if fn, ok := viewCache.Load(rt); ok {
		if fn == nil {
			return buf, false
		}
		return fn.(func(any) any)(buf), true
	}
	fn := makeView(rt)
	if fn == nil {
		viewCache.Store(rt, nil)
		return buf, false
	}
	viewCache.Store(rt, fn)
	return fn(buf), true
}

// makeView builds the reinterpreting converter for a named-primitive
// slice type, or returns nil when rt does not qualify.
func makeView(rt reflect.Type) func(any) any {
	if rt.Kind() != reflect.Slice {
		return nil
	}
	c, ok := kindClasses[rt.Elem().Kind()]
	if !ok {
		return nil
	}
	switch c {
	case U8:
		return func(buf any) any { return viewAs[byte](buf) }
	case Bool:
		return func(buf any) any { return viewAs[bool](buf) }
	case I16:
		return func(buf any) any { return viewAs[int16](buf) }
	case I32:
		return func(buf any) any { return viewAs[int32](buf) }
	case I64:
		return func(buf any) any { return viewAs[int64](buf) }
	case F32:
		return func(buf any) any { return viewAs[float32](buf) }
	case F64:
		return func(buf any) any { return viewAs[float64](buf) }
	}
	return nil
}

// viewAs rewrites the slice header of buf (a slice whose element type
// has E's size and representation) to []E sharing the same storage.
func viewAs[E any](buf any) any {
	v := reflect.ValueOf(buf)
	n := v.Len()
	if n == 0 {
		return []E(nil)
	}
	return unsafe.Slice((*E)(v.UnsafePointer()), v.Cap())[:n]
}

// ByteViewRange exposes the raw little-endian bytes of a contiguous
// section of a native (or named-primitive) element slice: the window
// [off, off+n) in elements. It returns ok == false when the fast path
// does not apply (big-endian host, Obj or bool class — bool's wire byte
// is a normative 0/1 that foreign memory must not be trusted for — or a
// non-native buffer type); callers must then use Pack/Unpack. The
// returned slice aliases buf's storage. Caller guarantees off/n are in
// bounds.
func ByteViewRange(buf any, off, n int) ([]byte, bool) {
	if !hostLE {
		return nil, false
	}
	if n == 0 {
		return nil, true
	}
	switch s, _ := NativeView(buf); s := s.(type) {
	case []byte:
		return s[off : off+n], true
	case []int16:
		return rawBytes(s[off : off+n]), true
	case []int32:
		return rawBytes(s[off : off+n]), true
	case []int64:
		return rawBytes(s[off : off+n]), true
	case []float32:
		return rawBytes(s[off : off+n]), true
	case []float64:
		return rawBytes(s[off : off+n]), true
	}
	return nil, false
}

// Fixed is the set of element types whose wire encoding is their
// little-endian memory image. bool is deliberately absent: its wire
// form is a normative 0/1 byte, and foreign bytes must never be
// reinterpreted as Go bools.
type Fixed interface {
	byte | int16 | int32 | int64 | float32 | float64
}

// WireView is ByteViewRange's inverse: it reinterprets wire bytes as a []T
// sharing their storage. ok is false when the fast path does not apply
// — a big-endian host, or a window not aligned for T (a payload behind
// a frame header) — and callers must stage through WireDecode/WireEncode
// instead. Trailing bytes short of a whole element are not part of the
// view.
func WireView[T Fixed](wire []byte) ([]T, bool) {
	var z T
	n := len(wire) / int(unsafe.Sizeof(z))
	if n == 0 {
		return nil, true
	}
	p := unsafe.Pointer(unsafe.SliceData(wire))
	if !hostLE || uintptr(p)%unsafe.Alignof(z) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), n), true
}

// WireDecode fills dst from the first len(dst) elements of wire,
// wherever wire sits in memory and whatever the host byte order.
func WireDecode[T Fixed](dst []T, wire []byte) {
	if len(dst) == 0 {
		return
	}
	raw := rawBytes(dst)
	copy(raw, wire)
	if !hostLE {
		swapElems(raw, len(raw)/len(dst))
	}
}

// WireEncode writes src to the front of wire in wire format.
func WireEncode[T Fixed](wire []byte, src []T) {
	if len(src) == 0 {
		return
	}
	raw := rawBytes(src)
	n := copy(wire, raw)
	if !hostLE {
		swapElems(wire[:n], len(raw)/len(src))
	}
}

// rawBytes is the memory image of a non-empty native slice.
func rawBytes[T Fixed](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// swapElems reverses the bytes of every es-byte element of b in place
// (the big-endian host's conversion to and from wire order).
func swapElems(b []byte, es int) {
	for ; len(b) >= es; b = b[es:] {
		for i, j := 0, es-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
	}
}
