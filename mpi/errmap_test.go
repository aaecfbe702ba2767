package mpi

import "testing"

// TestErrorMappersAllocateNothingOnSuccess: every call checks its
// result through mapDataErr or mapEngineErr, most often with a nil
// error — every section a collective validates, every plan it builds —
// so the success path must not allocate. (The *PeerLostError target
// that errors.As fills escapes to the heap wherever it is declared.)
func TestErrorMappersAllocateNothingOnSuccess(t *testing.T) {
	for name, mapErr := range map[string]func(error) error{"mapDataErr": mapDataErr, "mapEngineErr": mapEngineErr} {
		if n := testing.AllocsPerRun(100, func() { _ = mapErr(nil) }); n != 0 {
			t.Errorf("%s(nil) allocates %.0f objects, want 0", name, n)
		}
	}
}
