//go:build race

package coll

import (
	"runtime"
	"unsafe"
)

// raceBlocks tells the race detector what a block loop is about to read
// and write, which it cannot see in assembly.
func raceBlocks(a, b, dst unsafe.Pointer, n int) {
	runtime.RaceReadRange(a, n)
	runtime.RaceReadRange(b, n)
	runtime.RaceWriteRange(dst, n)
}

// raceTree does the same for a tree step.
func raceTree(s [4]unsafe.Pointer, d [maxDsts]unsafe.Pointer, nd, n int) {
	for _, p := range s {
		runtime.RaceReadRange(p, n)
	}
	for _, p := range d[:nd] {
		runtime.RaceWriteRange(p, n)
	}
}
