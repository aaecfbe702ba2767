//go:build !race

package coll

import "unsafe"

func raceBlocks(a, b, dst unsafe.Pointer, n int) {}

func raceTree(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int) {}
