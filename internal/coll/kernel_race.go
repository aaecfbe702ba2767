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
