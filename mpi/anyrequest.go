package mpi

import "context"

// AnyRequest is the unified request surface — the binding's analogue of
// MPI-4's single request class. Every request kind the binding produces
// satisfies it:
//
//   - *Request            point-to-point nonblocking operations
//   - *CollRequest        nonblocking collectives
//   - *FileCollRequest    nonblocking collective file I/O
//   - *PersistentRequest  persistent operations (*Init/Start)
//
// so heterogeneous sets can be completed together with WaitAllAny and
// TestAllAny, the way MPI_Waitall accepts mixed request kinds. The
// concrete helpers over []*Request (WaitAll, WaitAny, WaitSome) remain
// for homogeneous point-to-point sets, where they avoid the interface
// boxing and keep their richer semantics.
//
// For request kinds that carry no per-operation status (collectives,
// persistent collective activations), Wait/WaitCtx/Test return the
// empty status; collective file reads report their transfer status.
type AnyRequest interface {
	Wait() (*Status, error)
	WaitCtx(ctx context.Context) (*Status, error)
	Test() (*Status, bool, error)
	Free() error
}

var (
	_ AnyRequest = (*Request)(nil)
	_ AnyRequest = (*CollRequest)(nil)
	_ AnyRequest = (*FileCollRequest)(nil)
	_ AnyRequest = (*PersistentRequest)(nil)
)

// WaitAllAny waits for every request in a mixed-kind set and returns
// their statuses in order, Index fields set (MPI_Waitall over the
// unified request surface). The first operation error is returned;
// waiting continues past failures so every request is reaped.
func WaitAllAny(reqs []AnyRequest) ([]*Status, error) {
	sts := make([]*Status, len(reqs))
	var firstErr error
	for i, r := range reqs {
		st, err := r.Wait()
		cp := *st
		cp.Index = i
		sts[i] = &cp
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return sts, firstErr
}

// TestAllAny reports completion of every request in a mixed-kind set
// (MPI_Testall); statuses are only returned when all have completed.
func TestAllAny(reqs []AnyRequest) ([]*Status, bool, error) {
	for _, r := range reqs {
		if _, done, _ := r.Test(); !done {
			return nil, false, nil
		}
	}
	sts, err := WaitAllAny(reqs)
	return sts, true, err
}
