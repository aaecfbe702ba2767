package dtype

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
)

// Object serialization — the paper's §2.2 extension. A buffer of
// MPI.OBJECT elements is any slice, as mpiJava's is any Object[]: a
// []any, a []Ticket, a []*Ticket. Each element is serialized straight
// from the buffer in the send wrapper and unserialized straight into it
// at the destination (setObject). Go's encoding/gob plays the role of
// Java object serialization; concrete element types must be registered
// via Register (the analogue of implementing Serializable). The wire
// bytes depend on the element values only, not on the slice type, so a
// []Ticket sender and a []any receiver interoperate.
//
// Wire layout of an Obj payload:
//
//	u32 object count
//	u32 stream length
//	one gob stream of the boxed objects, in typemap order
//
// gob frames each value itself, so the stream needs no length word per
// object, and it sends each concrete type's description once per
// message rather than once per element. The count bounds what a
// receiver allocates: every boxed value costs at least one stream byte.

// box wraps an interface value so gob carries its concrete type.
type box struct{ V any }

// Register records a concrete type for object-buffer serialization,
// mirroring gob.Register. Values of unregistered concrete types cannot
// travel in OBJECT buffers.
func Register(v any) { gob.Register(v) }

// packObjects encodes the section's elements straight from buf, which
// may be any slice, through one gob stream appended after the header.
func packObjects(dst []byte, buf any, offset, count int, t *Type) ([]byte, error) {
	v := reflect.ValueOf(buf)
	head := len(dst)
	stream := bytes.NewBuffer(append(dst, make([]byte, 8)...))
	enc := gob.NewEncoder(stream)
	var err error
	t.walk(offset, count, func(lo, n int) {
		for i := lo; i < lo+n && err == nil; i++ {
			err = enc.Encode(box{V: v.Index(i).Interface()})
		}
	})
	if err != nil {
		return dst, fmt.Errorf("dtype: object encode: %w", err)
	}
	dst = stream.Bytes()
	binary.LittleEndian.PutUint32(dst[head:], uint32(count*len(t.disps)))
	binary.LittleEndian.PutUint32(dst[head+4:], uint32(len(dst)-head-8))
	return dst, nil
}

// objectStream checks the header of the Obj payload at the front of
// data and returns its object count and gob stream. Both words are
// compared unsigned, count ≤ stream length ≤ payload, so a corrupt
// header can neither force a large allocation nor wrap negative on a
// 32-bit host.
func objectStream(data []byte) (int, []byte, error) {
	if len(data) < 8 {
		return 0, nil, ErrFormat
	}
	n, size := binary.LittleEndian.Uint32(data), binary.LittleEndian.Uint32(data[4:])
	if n > size || uint64(size) > uint64(len(data)-8) {
		return 0, nil, ErrFormat
	}
	return int(n), data[8 : 8+int(size)], nil
}

// ObjectsLen returns the byte length of the Obj payload at the front of
// data — its header and gob stream — so that a caller holding several
// packed sections back to back can step past one.
func ObjectsLen(data []byte) (int, error) {
	_, stream, err := objectStream(data)
	if err != nil {
		return 0, err
	}
	return 8 + len(stream), nil
}

// EncodeObjects serializes a whole object slice to an Obj payload.
func EncodeObjects(objs []any) ([]byte, error) {
	return packObjects(nil, objs, 0, len(objs), basicOf[Obj])
}

// DecodeObjects deserializes every object of an Obj payload; the count
// comes from the payload header. On error the objects are unusable.
func DecodeObjects(data []byte) ([]any, error) {
	n, _, err := objectStream(data)
	if err != nil {
		return nil, err
	}
	objs := make([]any, n)
	_, err = unpackObjects(data, objs, 0, n, basicOf[Obj])
	return objs, err
}

// unpackObjects decodes the payload's elements straight into buf, which
// may be any slice (see setObject), stopping after as many as the
// section holds.
func unpackObjects(data []byte, buf any, offset, count int, t *Type) (int, error) {
	avail, stream, err := objectStream(data)
	if err != nil {
		return 0, err
	}
	dec := gob.NewDecoder(bytes.NewReader(stream))
	capacity := count * len(t.disps)
	todo, done := min(avail, capacity), 0
	t.walk(offset, count, func(lo, n int) {
		for i := lo; i < lo+n && done < todo && err == nil; i++ {
			var x box
			if err = dec.Decode(&x); err != nil {
				err = fmt.Errorf("dtype: object decode: %w", err)
			} else if err = setObject(buf, i, x.V); err == nil {
				done++
			}
		}
	})
	if err == nil && avail > capacity {
		err = ErrTruncate
	}
	return done, err
}

// setObject stores decoded element x at buf[i]: as is when it is
// assignable to the element type, behind a fresh pointer when the
// element type is *E and x an E (gob flattens pointers on the wire), and
// as the zero value when x is nil. Any other x is a class mismatch.
func setObject(buf any, i int, x any) error {
	slot := reflect.ValueOf(buf).Index(i)
	et := slot.Type()
	v := reflect.ValueOf(x)
	switch {
	case x == nil:
		slot.SetZero()
	case v.Type().AssignableTo(et):
		slot.Set(v)
	case et.Kind() == reflect.Pointer && v.Type() == et.Elem():
		p := reflect.New(et.Elem())
		p.Elem().Set(v)
		slot.Set(p)
	default:
		return fmt.Errorf("%w: element %d arrived as %T, want %s", ErrClassMismatch, i, x, et)
	}
	return nil
}
