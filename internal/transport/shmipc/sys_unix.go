//go:build unix

package shmipc

import (
	"errors"
	"os"
	"syscall"
)

// Supported reports that this platform has MAP_SHARED.
const Supported = true

// mmapFile maps the file's first size bytes shared read-write.
func mmapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
}

// munmapFile releases a mapping made by mmapFile.
func munmapFile(b []byte) error {
	return syscall.Munmap(b)
}

// pidAlive reports whether a process with the given id exists. EPERM
// means "exists but not ours", which is alive for our purposes.
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	err := syscall.Kill(pid, 0)
	return err == nil || errors.Is(err, syscall.EPERM)
}
