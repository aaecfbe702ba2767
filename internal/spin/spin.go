// Package spin provides microsecond-accurate delay primitives.
//
// The benchmark calibration profiles (transport.LinkProfile,
// Env.SetBindingOverhead) inject artificial per-call and per-message
// costs — the JNI-crossing cost model and the 10BaseT link emulation —
// whose magnitudes are a few tens to a few hundreds of microseconds. time.Sleep alone is too coarse at that scale
// on most kernels, so Wait uses a hybrid strategy: sleep for the bulk of
// long delays, then busy-wait the remainder against the monotonic clock.
package spin

import "time"

// sleepFloor is the delay above which we trust time.Sleep for the bulk of
// the wait. Below it we spin; the kernel tick would overshoot badly.
const sleepFloor = 500 * time.Microsecond

// Wait blocks for approximately d with microsecond-level accuracy.
// A zero or negative d returns immediately.
func Wait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > sleepFloor {
		time.Sleep(d - sleepFloor)
	}
	for time.Now().Before(deadline) {
		// Busy-wait. time.Now is a VDSO call; the loop resolves
		// well under a microsecond on current hardware.
	}
}
