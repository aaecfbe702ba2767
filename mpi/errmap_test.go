package mpi

import (
	"fmt"
	"testing"

	"gompi/internal/core"
	"gompi/internal/transport"
)

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

// TestErrorMappersAgreeOnFailures: a peer's loss, a revoked
// communicator and a withdrawn match reach the caller through a
// point-to-point receive (mapDataErr), an engine call (mapEngineErr) or
// a collective's schedule (mapSchedErr); each must report one class
// whichever path it took.
func TestErrorMappersAgreeOnFailures(t *testing.T) {
	mappers := []struct {
		name string
		fn   func(error) error
	}{{"mapDataErr", mapDataErr}, {"mapEngineErr", mapEngineErr}, {"mapSchedErr", mapSchedErr}}
	for _, tc := range []struct {
		err  error
		want ErrClass
	}{
		{&transport.PeerLostError{Peer: 3}, ErrProcFailed},
		{core.ErrCommRevoked, ErrRevoked},
		{core.ErrWithdrawn, ErrIntern},
		{fmt.Errorf("step 2: %w", core.ErrWithdrawn), ErrIntern},
	} {
		for _, m := range mappers {
			if got := ClassOf(m.fn(tc.err)); got != tc.want {
				t.Errorf("%s(%v) = %v, want %v", m.name, tc.err, got, tc.want)
			}
		}
	}
}
