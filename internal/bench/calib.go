package bench

import "time"

// The 1999 calibration: per-environment cost constants
// chosen so the emulated stack reproduces the paper's published
// magnitudes on Table 1 and the curve shapes of Figures 5 and 6.
//
// Model, per one-way transfer of n bytes:
//
//	t(n) ≈ link.PerMessage + link.Latency + n/link.BytesPerSec
//	       + (binding ? 2 × bindingCost : 0)
//
// The binding charges one crossing at the sender's Send and one at the
// receiver's Recv — exactly where mpiJava pays its JNI prologue.
//
// Calibration targets (paper Table 1, µs for a 1-byte message):
//
//	        Wsock  WMPI-C  WMPI-J  MPICH-C  MPICH-J
//	 SM     144.8    67.2   161.4    148.7    374.6
//	 DM     244.9   623.9   689.7    679.1    961.2
//
// Figure targets: SM convergence of C and Java curves by ~256 KB with
// peaks near 65 MB/s (WMPI) and ~50 MB/s (MPICH); DM saturation near
// 1 MB/s ≈ 90 % of 10 Mbps with convergence by ~4 KB.

// bindingCost is the emulated JNI/JVM crossing cost per binding call.
func bindingCost(p Platform) time.Duration {
	// Derived from Table 1 SM deltas: (161.4-67.2)/2 and
	// (374.6-148.7)/2. The paper attributes the platform difference to
	// JVM quality (§4.6).
	if p == WMPI {
		return 47 * time.Microsecond
	}
	return 113 * time.Microsecond
}

// linkProfile assembles the shaped-device profile of one environment.
// For the Wsock rows only the wire part applies (no MPI software path).
func linkProfile(impl Impl, p Platform, m Mode, paper bool) profile {
	if !paper {
		return profile{}
	}
	var lp profile
	if m == DM {
		// 10BaseT: 10 Mbps at ~92 % efficiency, plus wire+stack
		// latency calibrated against the Wsock DM row.
		lp.Latency = 230 * time.Microsecond
		lp.BytesPerSec = 1.15e6
	} else {
		// SM: the memory-bus bandwidth ceiling observed in Fig. 5.
		if p == WMPI || impl == Wsock {
			lp.BytesPerSec = 65e6
		} else {
			lp.BytesPerSec = 52e6
		}
		if impl == Wsock {
			// The Winsock SM row pays the localhost socket stack.
			lp.Latency = 135 * time.Microsecond
		}
	}
	if impl == Wsock {
		return lp
	}
	// Native MPI software path per message.
	switch {
	case m == SM && p == WMPI:
		lp.PerMessage = 60 * time.Microsecond
	case m == SM && p == MPICH:
		lp.PerMessage = 140 * time.Microsecond
		lp.StagingCopy = true
	case m == DM && p == WMPI:
		lp.PerMessage = 375 * time.Microsecond
	default: // DM MPICH
		lp.PerMessage = 430 * time.Microsecond
		lp.StagingCopy = true
	}
	return lp
}

// overheadFor returns the binding-crossing cost a spec injects
// (zero for the native and socket baselines, and in modern mode).
func overheadFor(s Spec) time.Duration {
	if !s.Paper1999 || s.Impl != JavaOO {
		return 0
	}
	return bindingCost(s.Platform)
}
