//go:build !unix

package shmipc

import "os"

// Supported is false here: no shared mmap, so device selection falls
// back to sockets.
const Supported = false

func mmapFile(f *os.File, size int) ([]byte, error) { return nil, ErrUnsupported }

func munmapFile(b []byte) error { return ErrUnsupported }

func pidAlive(pid int) bool { return true }
