package coll

import (
	"unsafe"

	"gompi/internal/dtype"
)

// The block loops of kernel_amd64.s: dst = a OP b over n ≥ 1 blocks of
// 64 bytes, one SSE2 packed instruction per 16 bytes. SSE2 is part of
// every amd64 CPU Go runs on, so nothing is checked at run time.

//go:noescape
func addpd(a, b, dst unsafe.Pointer, n int)

//go:noescape
func mulpd(a, b, dst unsafe.Pointer, n int)

//go:noescape
func maxpd(a, b, dst unsafe.Pointer, n int)

//go:noescape
func minpd(a, b, dst unsafe.Pointer, n int)

//go:noescape
func addps(a, b, dst unsafe.Pointer, n int)

//go:noescape
func mulps(a, b, dst unsafe.Pointer, n int)

//go:noescape
func maxps(a, b, dst unsafe.Pointer, n int)

//go:noescape
func minps(a, b, dst unsafe.Pointer, n int)

//go:noescape
func paddq(a, b, dst unsafe.Pointer, n int)

//go:noescape
func paddl(a, b, dst unsafe.Pointer, n int)

//go:noescape
func paddw(a, b, dst unsafe.Pointer, n int)

//go:noescape
func paddb(a, b, dst unsafe.Pointer, n int)

//go:noescape
func pand(a, b, dst unsafe.Pointer, n int)

//go:noescape
func por(a, b, dst unsafe.Pointer, n int)

//go:noescape
func pxor(a, b, dst unsafe.Pointer, n int)

// vector returns the block loop of operation k on T, or nil: for
// MINLOC/MAXLOC and the logical family, which are more than one packed
// instruction per lane, and for PROD, MAX and MIN on the integer
// classes, which SSE2 covers for some widths only (PMULLW, PMAXSW,
// PMAXUB and their MIN forms). Integer SUM wraps in both forms.
func vector[T dtype.Fixed](k kind) block {
	ops := [kBxor + 1]block{kBand: pand, kBor: por, kBxor: pxor}
	switch any(*new(T)).(type) {
	case float64:
		ops = [kBxor + 1]block{kSum: addpd, kProd: mulpd, kMax: maxpd, kMin: minpd}
	case float32:
		ops = [kBxor + 1]block{kSum: addps, kProd: mulps, kMax: maxps, kMin: minps}
	case int64:
		ops[kSum] = paddq
	case int32:
		ops[kSum] = paddl
	case int16:
		ops[kSum] = paddw
	case byte:
		ops[kSum] = paddb
	}
	return ops[k]
}
