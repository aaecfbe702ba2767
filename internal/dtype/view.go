package dtype

import (
	"fmt"
	"reflect"
	"unsafe"
)

// A buffer argument is resolved once, at the binding's entry point,
// into a Buf: the slice's data pointer, its length and its slice type,
// read out of the interface value and never kept with it. Everything
// past the entry point — validation, packing, the raw-byte views —
// reads those three words, so the caller's interface conversion can
// stay on the caller's stack, and no later layer switches on the
// buffer's dynamic type again.
//
//   - A slice of a *named* primitive type ([]Celsius where `type
//     Celsius float64`) resolves to its class's native slice type
//     ([]float64): a defined type's memory layout is its underlying
//     type's, so the data pointer is the same on every architecture,
//     and named primitives keep their class's wire format instead of
//     falling into OBJECT/gob.
//
//   - A fixed-size class's memory is its little-endian wire image, so
//     Pack and Unpack copy each run of a section as raw bytes through
//     the same walk on every host; a big-endian host then swaps the
//     copied bytes in place. On a little-endian host a contiguous
//     section is therefore one memcpy, and ByteView lends that image
//     out without copying at all.

// hostLE reports whether the host stores integers little-endian, i.e.
// whether in-memory representation equals the wire encoding.
var hostLE = func() bool {
	x := uint16(0x1122)
	return *(*byte)(unsafe.Pointer(&x)) == 0x22
}()

// ReinterpClass reports the storage class a defined (named) primitive
// element type reinterprets to, and whether it qualifies. Only kinds
// with an exact wire class qualify; int/uint (platform-sized) and the
// unsigned fixed widths beyond uint8 have no class and stay on the
// OBJECT path.
func ReinterpClass(rt reflect.Type) (Class, bool) {
	switch rt.Kind() {
	case reflect.Uint8:
		return U8, true
	case reflect.Bool:
		return Bool, true
	case reflect.Int16:
		return I16, true
	case reflect.Int32:
		return I32, true
	case reflect.Int64:
		return I64, true
	case reflect.Float32:
		return F32, true
	case reflect.Float64:
		return F64, true
	}
	return 0, false
}

// Buf is a resolved buffer argument: a slice's data pointer, its
// length in elements and the type word of its slice type — the native
// slice type of its class for a named primitive. A value that is not a
// slice resolves to a Buf with no elements that every check refuses.
type Buf struct {
	ptr unsafe.Pointer
	n   int // -1: not a slice
	typ unsafe.Pointer
}

// eface is the runtime layout of an interface{} value.
type eface struct{ typ, data unsafe.Pointer }

// typeWord is the type word of an interface holding a value of type rt.
func typeWord(rt reflect.Type) unsafe.Pointer {
	return (*[2]unsafe.Pointer)(unsafe.Pointer(&rt))[1]
}

// sliceTypes holds the type word of each class's native slice type.
var sliceTypes = [numClasses]unsafe.Pointer{
	U8:   typeWord(reflect.TypeOf([]byte(nil))),
	Bool: typeWord(reflect.TypeOf([]bool(nil))),
	I16:  typeWord(reflect.TypeOf([]int16(nil))),
	I32:  typeWord(reflect.TypeOf([]int32(nil))),
	I64:  typeWord(reflect.TypeOf([]int64(nil))),
	F32:  typeWord(reflect.TypeOf([]float32(nil))),
	F64:  typeWord(reflect.TypeOf([]float64(nil))),
	Obj:  typeWord(reflect.TypeOf([]any(nil))),
}

// native resolves a slice of class c's own element type.
func native[E any](s []E, c Class) Buf {
	return Buf{unsafe.Pointer(unsafe.SliceData(s)), len(s), sliceTypes[c]}
}

// BufOf resolves a buffer argument. It reads buf's slice header and
// type and keeps neither the interface nor anything it points to but
// the slice's storage.
func BufOf(buf any) Buf {
	switch s := buf.(type) {
	case []float64:
		return native(s, F64)
	case []byte:
		return native(s, U8)
	case []int32:
		return native(s, I32)
	case []int64:
		return native(s, I64)
	case []float32:
		return native(s, F32)
	case []int16:
		return native(s, I16)
	case []bool:
		return native(s, Bool)
	case []any:
		return native(s, Obj)
	case nil:
		return Buf{n: -1}
	}
	// reflect.TypeOf reads the type word without keeping buf; so do the
	// two loads of the slice header (a reflect.Value would keep buf).
	rt := reflect.TypeOf(buf)
	typ := typeWord(rt)
	if rt.Kind() != reflect.Slice {
		return Buf{n: -1, typ: typ}
	}
	if c, ok := ReinterpClass(rt.Elem()); ok {
		typ = sliceTypes[c]
	}
	s := *(*[]byte)((*eface)(unsafe.Pointer(&buf)).data)
	return Buf{unsafe.Pointer(unsafe.SliceData(s)), len(s), typ}
}

// Class reports the buffer's storage class: a fixed-size class for the
// native slice types, Obj for any other slice (mpiJava's Object[] of
// any class, whose elements travel gob-encoded). ok is false when the
// resolved value is not a slice.
func (b Buf) Class() (Class, bool) {
	for c := U8; c < Obj; c++ {
		if b.typ == sliceTypes[c] {
			return c, true
		}
	}
	return Obj, b.n >= 0
}

// typeOf is the buffer's (resolved) type, for error messages.
func (b Buf) typeOf() reflect.Type {
	x := eface{typ: b.typ}
	return reflect.TypeOf(*(*any)(unsafe.Pointer(&x)))
}

// value rebuilds the slice as an interface value over a fresh copy of
// its header: the reflect-driven OBJECT codec's way in, and the one
// place a Buf allocates.
func (b Buf) value() any {
	h := new([]byte)
	*h = unsafe.Slice((*byte)(b.ptr), b.n)
	x := eface{b.typ, unsafe.Pointer(h)}
	return *(*any)(unsafe.Pointer(&x))
}

// mem is the memory image of a fixed-size class's buffer, es bytes an
// element.
func (b Buf) mem(es int) []byte {
	return unsafe.Slice((*byte)(b.ptr), b.n*es)
}

// ByteView exposes the raw little-endian bytes of a contiguous section
// of a fixed-size buffer: the window [off, off+n) in elements. It
// returns ok == false when the fast path does not apply (big-endian
// host, Obj or bool class — bool's wire byte is a normative 0/1 that
// foreign memory must not be trusted for); callers must then use Pack
// and Unpack. The returned slice aliases the buffer's storage. Caller
// guarantees off/n are in bounds.
func (b Buf) ByteView(off, n int) ([]byte, bool) {
	c, _ := b.Class()
	if !hostLE || c == Obj || c == Bool {
		return nil, false
	}
	if n == 0 {
		return nil, true
	}
	es := c.WireSize()
	return b.mem(es)[off*es : (off+n)*es], true
}

// Check verifies that the buffer is a slice whose element type matches
// the datatype's storage class and returns its length. Named-primitive
// slices count as their underlying class.
func (b Buf) Check(t *Type) (int, error) {
	// One compare for a fixed-size class; only an OBJECT datatype asks
	// the buffer's class.
	if b.typ == sliceTypes[t.class] {
		return b.n, nil
	}
	c, ok := b.Class()
	if !ok {
		return 0, fmt.Errorf("%w: got %v", ErrClassMismatch, b.typeOf())
	}
	if c != t.class {
		return 0, fmt.Errorf("%w: buffer %v vs datatype %s", ErrClassMismatch, b.typeOf(), t)
	}
	return b.n, nil
}

// CheckSection verifies that count items of t starting at element
// offset lie inside the buffer — everything Pack and Unpack validate
// before they touch data — so a receive section can be rejected before
// any message is sent. It returns the buffer's length in elements.
func (b Buf) CheckSection(offset, count int, t *Type) (int, error) {
	if !t.committed {
		return 0, ErrUncommitted
	}
	n, err := b.Check(t)
	if err != nil {
		return 0, err
	}
	return n, t.checkBounds(n, offset, count)
}

// Fixed is the set of element types whose wire encoding is their
// little-endian memory image. bool is deliberately absent: its wire
// form is a normative 0/1 byte, and foreign bytes must never be
// reinterpreted as Go bools.
type Fixed interface {
	byte | int16 | int32 | int64 | float32 | float64
}

// WireView is ByteView's inverse: it reinterprets wire bytes as a []T
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
