package mpi_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gompi/internal/transport"
	"gompi/mpi"
)

// The aliasing tests pin the one promise a loan makes: once a send has
// completed — Send returned, or Wait on an Isend or on a started
// SendInit returned — nothing below the caller reads the buffer again.
// The sender therefore overwrites its buffer the instant each send
// completes, and the receiver checks every byte of every payload. Run
// under -race, a late reader is a reported race as well as a torn
// payload.

// lendSizes straddle the frame pool's classes above the eager limit.
var lendSizes = []int{128 << 10, 256<<10 + 4, 1 << 20}

// fill sets every byte of b to v without a per-byte loop (which the
// race detector would make the slowest part of the test).
func fill(b []byte, v byte) {
	b[0] = v
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

func intact(b []byte, v byte) bool { return bytes.Count(b, []byte{v}) == len(b) }

// lendForms are the three ways a classic send completes.
var lendForms = []struct {
	name string
	send func(w *mpi.Intracomm, buf []byte, p *mpi.PersistentRequest, dest, tag int) error
}{
	{"Send", func(w *mpi.Intracomm, buf []byte, _ *mpi.PersistentRequest, dest, tag int) error {
		return w.Send(buf, 0, len(buf), mpi.BYTE, dest, tag)
	}},
	{"Isend+Wait", func(w *mpi.Intracomm, buf []byte, _ *mpi.PersistentRequest, dest, tag int) error {
		req, err := w.Isend(buf, 0, len(buf), mpi.BYTE, dest, tag)
		if err != nil {
			return err
		}
		_, err = req.Wait()
		return err
	}},
	{"SendInit+Start+Wait", func(_ *mpi.Intracomm, _ []byte, p *mpi.PersistentRequest, _, _ int) error {
		if err := p.Start(); err != nil {
			return err
		}
		_, err := p.Wait()
		return err
	}},
}

// lendSender runs rounds sends of every form and size toward dest,
// scribbling over the buffer as soon as each completes. seq numbers the
// messages; message k carries byte(k) in every byte.
func lendSender(w *mpi.Intracomm, dest, rounds int) error {
	seq := 0
	for _, size := range lendSizes {
		buf := make([]byte, size)
		persistent, err := w.SendInit(buf, 0, size, mpi.BYTE, dest, 3)
		if err != nil {
			return err
		}
		for _, form := range lendForms {
			for i := 0; i < rounds; i++ {
				fill(buf, byte(seq))
				if err := form.send(w, buf, persistent, dest, 3); err != nil {
					return fmt.Errorf("%s of %d bytes, message %d: %w", form.name, size, seq, err)
				}
				fill(buf, ^byte(seq)) // ours again: any later reader sees this
				seq++
			}
		}
	}
	return nil
}

// lendReceiver is lendSender's peer.
func lendReceiver(w *mpi.Intracomm, source, rounds int) error {
	seq := 0
	for _, size := range lendSizes {
		buf := make([]byte, size)
		for range lendForms {
			for i := 0; i < rounds; i++ {
				st, err := w.Recv(buf, 0, size, mpi.BYTE, source, 3)
				if err != nil {
					return fmt.Errorf("message %d: %w", seq, err)
				}
				if st.GetCount(mpi.BYTE) != size || !intact(buf, byte(seq)) {
					return fmt.Errorf("message %d (%d bytes): payload torn or short (count %d, first byte %#x, want %#x)",
						seq, size, st.GetCount(mpi.BYTE), buf[0], byte(seq))
				}
				seq++
			}
		}
	}
	return nil
}

// lendToSelf sends to the caller's own rank through Sendrecv: the one
// case where the loan is returned by the lender's own engine.
func lendToSelf(w *mpi.Intracomm, rounds int) error {
	for _, size := range lendSizes {
		out, in := make([]byte, size), make([]byte, size)
		for i := 0; i < rounds; i++ {
			fill(out, byte(i))
			if _, err := w.Sendrecv(out, 0, size, mpi.BYTE, w.Rank(), 4, in, 0, size, mpi.BYTE, w.Rank(), 4); err != nil {
				return fmt.Errorf("Sendrecv to self, %d bytes: %w", size, err)
			}
			fill(out, ^byte(i))
			if !intact(in, byte(i)) {
				return fmt.Errorf("Sendrecv to self, %d bytes, round %d: payload torn", size, i)
			}
		}
	}
	return nil
}

// TestLoanAliasingSafety runs the overwrite-on-completion loop over
// every device a loan can cross: by reference (chan), serialised onto a
// socket (tcp, whose self-delivery is by reference again) and copied
// into the shared segment (shm).
func TestLoanAliasingSafety(t *testing.T) {
	const rounds = 20
	for _, device := range []string{"chan", "tcp", "shm"} {
		t.Run(device, func(t *testing.T) {
			var lent uint64
			err := mpi.RunWith(mpi.RunOptions{NP: 2, Device: device}, func(env *mpi.Env) error {
				w := env.CommWorld()
				if err := lendToSelf(w, rounds); err != nil {
					return err
				}
				if w.Rank() == 1 {
					return lendReceiver(w, 0, rounds)
				}
				err := lendSender(w, 1, rounds)
				lent = pv(env, "core.sends_lent")
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			// The test means nothing if the sends quietly packed.
			if want := uint64(len(lendSizes) * (len(lendForms) + 1) * rounds); lent != want {
				t.Fatalf("%d sends went out on loan, want %d", lent, want)
			}
		})
	}
}

// errFaultInjected is what a rank behind a fault plan returns once its
// part is done, so the job skips the finalize barrier its plan would
// hang or fail.
var errFaultInjected = errors.New("fault plan ran its course (expected)")

func onlyFaultInjected(t *testing.T, err error, rank int) {
	t.Helper()
	if err == nil || err.Error() != fmt.Sprintf("rank %d: %v", rank, errFaultInjected) {
		t.Fatalf("job error = %v, want only rank %d's sentinel", err, rank)
	}
}

// TestLoanAliasingUnderDropPlan puts the sender behind faulty: with a
// delay and a blackholed peer. Loans toward the live peer are forwarded
// through the decorator and must stay intact; a send toward the
// blackholed peer is never granted, so it can only be cancelled — after
// which the buffer is the caller's again without ever having left.
func TestLoanAliasingUnderDropPlan(t *testing.T) {
	const rounds = 5
	for _, device := range []string{"chan", "tcp"} {
		t.Run(device, func(t *testing.T) {
			err := mpi.RunWith(mpi.RunOptions{
				NP: 3, Device: device,
				WrapDevice: func(rank int, dev transport.Device) transport.Device {
					return transport.NewFaulty(dev, transport.FaultPlan{
						Rank: 0, DropPeers: map[int]bool{2: true}, SendDelay: 50 * time.Microsecond,
					})
				},
			}, func(env *mpi.Env) error {
				w := env.CommWorld()
				switch w.Rank() {
				case 1:
					return lendReceiver(w, 0, rounds)
				case 2:
					return nil
				}
				if err := lendSender(w, 1, rounds); err != nil {
					return err
				}
				buf := make([]byte, lendSizes[0])
				fill(buf, 7)
				req, err := w.Isend(buf, 0, len(buf), mpi.BYTE, 2, 3)
				if err != nil {
					return err
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				st, err := req.WaitCtx(ctx)
				if !errors.Is(err, context.DeadlineExceeded) || !st.TestCancelled() {
					return fmt.Errorf("send into the blackhole: err=%v cancelled=%v, want a cancelled send", err, st.TestCancelled())
				}
				fill(buf, 8)
				return errFaultInjected
			})
			onlyFaultInjected(t, err, 0)
		})
	}
}

// TestLoanAliasingUnderKillPlan kills the sender's endpoint mid-stream,
// once on a DATA frame (the loan is dropped with the frame and must
// still come back, or Send would hang) and once on an RTS. Every
// payload that did arrive must be intact, and both sides must come out
// with an error instead of a hang.
func TestLoanAliasingUnderKillPlan(t *testing.T) {
	const size = 256 << 10
	// The sender emits two frames per message (RTS, DATA), so frame 8
	// is message 3's DATA and frame 9 message 4's RTS.
	for _, killAfter := range []int{7, 8} {
		t.Run(fmt.Sprintf("after %d frames", killAfter), func(t *testing.T) {
			received := 0
			err := mpi.RunWith(mpi.RunOptions{
				NP: 2, Device: "tcp",
				WrapDevice: faultOn(0, killAfter),
			}, func(env *mpi.Env) error {
				w := env.CommWorld()
				buf := make([]byte, size)
				if w.Rank() == 1 {
					for ; ; received++ {
						if _, err := w.Recv(buf, 0, size, mpi.BYTE, 0, 3); err != nil {
							if cls := mpi.ClassOf(err); cls != mpi.ErrProcFailed {
								return fmt.Errorf("receiver failed with %v, want MPI_ERR_PROC_FAILED", err)
							}
							return nil
						}
						if !intact(buf, byte(received)) {
							return fmt.Errorf("message %d torn", received)
						}
					}
				}
				for seq := 0; seq < 100; seq++ {
					fill(buf, byte(seq))
					err := w.Send(buf, 0, size, mpi.BYTE, 1, 3)
					fill(buf, ^byte(seq))
					if err != nil {
						return errFaultInjected
					}
				}
				return errors.New("sender outlived its kill plan")
			})
			onlyFaultInjected(t, err, 0)
			if received != 3 && received != 4 {
				t.Fatalf("receiver got %d intact messages before the kill, want 3 or 4", received)
			}
		})
	}
}

// TestBsendSpawnsNoGoroutines: the attached-buffer reservation of a
// buffered send is released by the transfer's completion callback, not
// by a goroutine parked on it per message.
func TestBsendSpawnsNoGoroutines(t *testing.T) {
	const n, size = 1000, 1024
	// A low eager limit makes every transfer a rendezvous, pending
	// from its Bsend call until the receiver is let go below.
	err := mpi.RunWith(mpi.RunOptions{NP: 2, EagerLimit: 64}, func(env *mpi.Env) error {
		w := env.CommWorld()
		msg := make([]byte, size)
		if w.Rank() == 1 {
			if err := w.Barrier(); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if _, err := w.Recv(msg, 0, size, mpi.BYTE, 0, 1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := env.BufferAttach(n * size); err != nil {
			return err
		}
		before := runtime.NumGoroutine()
		for i := 0; i < n; i++ {
			if err := w.Bsend(msg, 0, size, mpi.BYTE, 1, 1); err != nil {
				return err
			}
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%d goroutines with %d buffered sends pending, %d before", after, n, before)
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		_, err := env.BufferDetach() // waits for every reservation to be released
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
