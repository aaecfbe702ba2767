// Package leak audits a package's tests for what they leave behind: a
// test binary's TestMain runs them through Main.
package leak

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// pollerFDs is what the runtime's network poller opens on first use
// and keeps for the life of the process (on Linux an epoll instance and
// an eventfd).
const pollerFDs = 2

// settle bounds the wait for goroutines that are on their way out.
const settle = 5 * time.Second

// Main runs m's tests and returns the binary's exit code. Once they
// have passed, it fails the binary if they left behind more goroutines
// than it had at start (after a bounded settle), more open descriptors
// than at start plus the runtime poller's, or a shared-memory segment
// that this process made. The descriptor audit is skipped where the
// system does not list a process's descriptors in /proc/self/fd.
func Main(m *testing.M) int {
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	if code := m.Run(); code != 0 {
		return code
	}
	var left []string
	for deadline := time.Now().Add(settle); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<20)
		left = append(left, fmt.Sprintf("%d goroutines at start, %d after the tests:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)]))
	}
	if n := openFDs(); fds >= 0 && n > fds+pollerFDs {
		left = append(left, fmt.Sprintf("%d open descriptors at start, %d after the tests: %s", fds, n, fdTargets()))
	}
	if segs := ownSegments(); len(segs) > 0 {
		left = append(left, fmt.Sprintf("shared-memory segments left in /dev/shm: %s", strings.Join(segs, ", ")))
	}
	if len(left) == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "leak: the tests passed but left behind:\n%s\n", strings.Join(left, "\n"))
	return 1
}

// openFDs counts this process's open descriptors, -1 where they cannot
// be listed.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// fdTargets names what each open descriptor refers to.
func fdTargets() string {
	ents, _ := os.ReadDir("/proc/self/fd")
	var out []string
	for _, e := range ents {
		target, _ := os.Readlink("/proc/self/fd/" + e.Name())
		out = append(out, e.Name()+"→"+target)
	}
	return strings.Join(out, " ")
}

// ownSegments lists the segments in /dev/shm whose name carries this
// process's id, as every segment a process names for itself does
// (gompi-shm-proc-<pid>-<n>.seg, gompi-shm-job<pid>-<n>.seg).
func ownSegments() []string {
	ents, err := os.ReadDir("/dev/shm")
	if err != nil {
		return nil
	}
	mine := regexp.MustCompile(fmt.Sprintf(`^gompi-shm-\D*%d-`, os.Getpid()))
	var out []string
	for _, e := range ents {
		if mine.MatchString(e.Name()) {
			out = append(out, e.Name())
		}
	}
	return out
}
