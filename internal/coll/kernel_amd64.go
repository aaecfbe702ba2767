package coll

import (
	"unsafe"

	"gompi/internal/dtype"
)

// The block loops of kernel_amd64.s, one SSE2 packed instruction per 16
// bytes: dst = a OP b over n ≥ 1 blocks of 64 bytes, and each one's tree
// step, named for it with a 4, which folds four operands per block and
// stores straight into up to maxDsts destinations (the island fold's
// accumulators, or its scratch below the top level). SSE2 is part of every
// amd64 CPU Go runs on, so nothing is checked at run time.

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

//go:noescape
func addpd4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func mulpd4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func maxpd4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func minpd4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func addps4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func mulps4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func maxps4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func minps4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func paddq4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func paddl4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func paddw4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func paddb4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func pand4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func por4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

//go:noescape
func pxor4(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int)

// vector returns the block loops of operation k on T, or none: for
// MINLOC/MAXLOC and the logical family, which are more than one packed
// instruction per lane, and for PROD, MAX and MIN on the integer
// classes, which SSE2 covers for some widths only (PMULLW, PMAXSW,
// PMAXUB and their MIN forms). Integer SUM wraps in all forms.
func vector[T dtype.Fixed](k kind) blockForm {
	var two [kBxor + 1]block
	var four [kBxor + 1]treeStep
	two[kBand], two[kBor], two[kBxor] = pand, por, pxor
	four[kBand], four[kBor], four[kBxor] = pand4, por4, pxor4
	var z T
	switch any(z).(type) {
	case float64:
		two = [kBxor + 1]block{kSum: addpd, kProd: mulpd, kMax: maxpd, kMin: minpd}
		four = [kBxor + 1]treeStep{kSum: addpd4, kProd: mulpd4, kMax: maxpd4, kMin: minpd4}
	case float32:
		two = [kBxor + 1]block{kSum: addps, kProd: mulps, kMax: maxps, kMin: minps}
		four = [kBxor + 1]treeStep{kSum: addps4, kProd: mulps4, kMax: maxps4, kMin: minps4}
	case int64:
		two[kSum], four[kSum] = paddq, paddq4
	case int32:
		two[kSum], four[kSum] = paddl, paddl4
	case int16:
		two[kSum], four[kSum] = paddw, paddw4
	case byte:
		two[kSum], four[kSum] = paddb, paddb4
	}
	if two[k] == nil {
		return blockForm{}
	}
	return blockForm{two: two[k], four: four[k], align: unsafe.Alignof(z)}
}
