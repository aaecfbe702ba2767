package mpi_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"gompi/internal/transport"
	"gompi/mpi"
	"gompi/mpi/typed"
)

// The tags of classicPingPong: its echo rank answers every message but
// a tagStop one with a tagPing reply.
const tagPing, tagStop = 5, 6

// echoes counts classicPingPong's replies whose Send has returned: by
// then the reply's frames are in the receiver's mailbox and counted.
var echoes atomic.Int64

// classicPingPong runs fn on rank 0 of a 2-rank chan job whose rank 1
// echoes size-byte classic Send/Recv round trips until rank 0 is done.
// fn gets the round trip as a closure.
func classicPingPong(size int, fn func(env *mpi.Env, roundTrip func() error) error) error {
	return mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		send, recv := make([]byte, size), make([]byte, size)
		if w.Rank() == 1 {
			for {
				st, err := w.Recv(recv, 0, size, mpi.BYTE, 0, mpi.AnyTag)
				if err != nil || st.Tag == tagStop {
					return err
				}
				if err := w.Send(recv, 0, size, mpi.BYTE, 0, tagPing); err != nil {
					return err
				}
				echoes.Add(1)
			}
		}
		err := fn(env, func() error {
			if err := w.Send(send, 0, size, mpi.BYTE, 1, tagPing); err != nil {
				return err
			}
			_, err := w.Recv(recv, 0, size, mpi.BYTE, 1, tagPing)
			return err
		})
		if serr := w.Send(send, 0, 0, mpi.BYTE, 1, tagStop); err == nil {
			err = serr
		}
		return err
	})
}

// BenchmarkClassicPingPong256K is the p2p.256KiB.chan loop of the repo
// benchmark as a go-test benchmark: a blocking classic Send/Recv round
// trip of 256 KiB between two in-process ranks.
func BenchmarkClassicPingPong256K(b *testing.B) {
	const size = 256 << 10
	err := classicPingPong(size, func(_ *mpi.Env, roundTrip func() error) error {
		b.SetBytes(2 * size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := roundTrip(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestClassicRendezvousTakesNoPayloadFrame is the copy-accounting guard
// of the single-copy rendezvous: a blocking 256 KiB classic Send/Recv
// round trip on chan lends and receives in place, so the only buffers
// it takes from the frame pool are frame headers — one per frame sent,
// never a payload-sized pack or staging frame — and it allocates no
// more than the packing path did. Both sides count one population, the
// frames both ranks sent (by reference a frame is counted sent and
// received at once, after it is in the receiver's mailbox) against the
// buffers both took, over a window that opens and closes with the echo
// rank's last Send returned: its reply may complete rank 0's Recv
// before it is counted, so the counters settle only then.
func TestClassicRendezvousTakesNoPayloadFrame(t *testing.T) {
	const size, rounds = 256 << 10, 100
	// What the packing path allocated per round trip on this loop
	// (Status values, the goroutines carrying CTS and DATA frames off
	// the progress loops): the loan must not add to it.
	const parentAllocs = 20
	err := classicPingPong(size, func(env *mpi.Env, roundTrip func() error) error {
		echoed := echoes.Load()
		for i := 0; i < 20; i++ { // warm pools and requests
			if err := roundTrip(); err != nil {
				return err
			}
		}
		// frames waits for the echo rank to have sent its reply to round
		// trip n, then counts the frames of the job: each is one rank 0
		// sent or received.
		frames := func(n int64) uint64 {
			for echoes.Load() < echoed+n {
				runtime.Gosched()
			}
			return pv(env, "transport.chan.frames_sent") + pv(env, "transport.chan.frames_recv")
		}
		sent, gets, lent := frames(20), transport.PoolStats().Gets, pv(env, "core.sends_lent")
		var rtErr error
		allocs := testing.AllocsPerRun(rounds, func() {
			if err := roundTrip(); err != nil {
				rtErr = err
			}
		})
		if rtErr != nil {
			return rtErr
		}
		sent = frames(20+rounds+1) - sent
		gets = transport.PoolStats().Gets - gets
		if got := pv(env, "core.sends_lent") - lent; got != rounds+1 {
			t.Errorf("%d of %d sends went out on loan", got, rounds+1)
		}
		if gets != sent {
			t.Errorf("%d buffers taken from the frame pool for %d frames: something staged a payload", gets, sent)
		}
		if !raceEnabled && allocs > parentAllocs {
			t.Errorf("round trip allocates %.1f/op, the packing path allocated %d", allocs, parentAllocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBindingRoundTripAllocs is the binding rung's allocation ceiling:
// an 8-byte blocking round trip, through the classic API and through
// mpi/typed, allocates nothing on either rank. The slice header boxed
// into a send's and a receive's buf any stays on the caller's stack
// (the binding keeps only what dtype.BufOf read), and so does the
// Status of a receive whose caller does not keep it. A change that
// adds an allocation per message fails here.
func TestBindingRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled frames at random")
	}
	const size, rounds, ceiling = 8, 200, 0
	for _, form := range []string{"classic", "typed"} {
		err := classicPingPong(size, func(env *mpi.Env, roundTrip func() error) error {
			if form == "typed" {
				w, send, recv := env.CommWorld(), make([]byte, size), make([]byte, size)
				roundTrip = func() error {
					if err := typed.Send(w, send, 1, tagPing); err != nil {
						return err
					}
					_, err := typed.Recv(w, recv, 1, tagPing)
					return err
				}
			}
			for i := 0; i < 20; i++ { // warm pools and requests
				if err := roundTrip(); err != nil {
					return err
				}
			}
			var rtErr error
			allocs := testing.AllocsPerRun(rounds, func() {
				if err := roundTrip(); err != nil {
					rtErr = err
				}
			})
			if rtErr != nil {
				return rtErr
			}
			if allocs > ceiling {
				t.Errorf("%s round trip allocates %.1f objects, ceiling %d", form, allocs, ceiling)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
