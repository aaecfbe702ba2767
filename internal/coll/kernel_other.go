//go:build !amd64

package coll

import "gompi/internal/dtype"

// vector: off amd64 the typed loops are the only kernels, and the island
// walks every chunk with kernel steps.
func vector[T dtype.Fixed](kind) blockForm { return blockForm{} }
