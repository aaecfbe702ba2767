//go:build !amd64

package coll

import "gompi/internal/dtype"

// vector: off amd64 the typed loops are the only kernels.
func vector[T dtype.Fixed](kind) block { return nil }
