package mpi_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gompi/mpi"
)

// Recv, Irecv and RecvInit take the receive-into path wherever the
// datatype allows (RecvIntoInit is RecvInit under its older name); the
// table below pins that the four names are one receive — same Status,
// same buffer contents — on the completions where the
// staging and the in-place paths used to differ: a payload that is not
// a whole number of elements, a truncating message, a cancelled receive
// and a peer lost mid-receive. The RecvInto and IrecvInto rows are Recv
// and Irecv into a section that starts past the head of the caller's
// buffer, so every completion also pins that the deposit lands at the
// offset and leaves the head alone. Each runs over both receive shapes,
// the contiguous one the engine deposits in place and a strided one that
// is still staged and unpacked, which must agree too.

// recvOutcome is everything a caller can observe of a completed receive.
type recvOutcome struct {
	class     mpi.ErrClass // of the returned error; -1 for a context error
	cancelled bool
	source    int
	tag       int
	bytes     int
	elements  int
	buf       string
}

// recvForm runs one receive to completion into buf[offset:]; with a
// non-nil ctx the wait is WaitCtx, which the blocking forms do not have.
type recvForm struct {
	name     string
	blocking bool
	offset   int // in doubles
	recv     func(ctx context.Context, w *mpi.Intracomm, buf []float64, count int, d *mpi.Datatype, src, tag int) (*mpi.Status, error)
}

func blockingForm(name string, offset int, recv func(*mpi.Intracomm, any, int, int, *mpi.Datatype, int, int) (*mpi.Status, error)) recvForm {
	return recvForm{name, true, offset, func(_ context.Context, w *mpi.Intracomm, buf []float64, count int, d *mpi.Datatype, src, tag int) (*mpi.Status, error) {
		return recv(w, buf, offset, count, d, src, tag)
	}}
}

func nonblockingForm(name string, offset int, post func(*mpi.Intracomm, any, int, int, *mpi.Datatype, int, int) (*mpi.Request, error)) recvForm {
	return recvForm{name, false, offset, func(ctx context.Context, w *mpi.Intracomm, buf []float64, count int, d *mpi.Datatype, src, tag int) (*mpi.Status, error) {
		req, err := post(w, buf, offset, count, d, src, tag)
		if err != nil {
			return nil, err
		}
		if ctx != nil {
			return req.WaitCtx(ctx)
		}
		return req.Wait()
	}}
}

func persistentForm(name string, init func(*mpi.Intracomm, any, int, int, *mpi.Datatype, int, int) (*mpi.PersistentRequest, error)) recvForm {
	return recvForm{name, false, 0, func(ctx context.Context, w *mpi.Intracomm, buf []float64, count int, d *mpi.Datatype, src, tag int) (*mpi.Status, error) {
		p, err := init(w, buf, 0, count, d, src, tag)
		if err != nil {
			return nil, err
		}
		if err := p.Start(); err != nil {
			return nil, err
		}
		if ctx != nil {
			return p.WaitCtx(ctx)
		}
		return p.Wait()
	}}
}

// intoOffset is where the RecvInto and IrecvInto rows' section starts.
const intoOffset = 3

var recvForms = []recvForm{
	blockingForm("Recv", 0, (*mpi.Intracomm).Recv),
	blockingForm("RecvInto", intoOffset, (*mpi.Intracomm).Recv),
	nonblockingForm("Irecv", 0, (*mpi.Intracomm).Irecv),
	nonblockingForm("IrecvInto", intoOffset, (*mpi.Intracomm).Irecv),
	persistentForm("RecvInit", (*mpi.Intracomm).RecvInit),
	persistentForm("RecvIntoInit", (*mpi.Intracomm).RecvIntoInit),
}

// recvShape is a receive section of capacity two doubles.
type recvShape struct {
	name  string
	dt    func() (*mpi.Datatype, error)
	count int
	span  int // buffer length in doubles
	at    [2]int
}

var recvShapes = []recvShape{
	{"contiguous", func() (*mpi.Datatype, error) { return mpi.DOUBLE, nil }, 2, 2, [2]int{0, 1}},
	{"strided", func() (*mpi.Datatype, error) {
		d, err := mpi.TypeVector(2, 1, 2, mpi.DOUBLE)
		if err == nil {
			d.Commit()
		}
		return d, err
	}, 1, 4, [2]int{0, 2}},
}

const untouched = -1.0

func freshBuf(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = untouched
	}
	return b
}

func outcomeOf(st *mpi.Status, err error, buf []float64) recvOutcome {
	o := recvOutcome{class: mpi.ClassOf(err), buf: fmt.Sprint(buf)}
	if errors.Is(err, context.Canceled) {
		o.class = -1
	}
	if st != nil {
		o.cancelled, o.source, o.tag = st.TestCancelled(), st.Source, st.Tag
		o.bytes, o.elements = st.Bytes(), st.GetElements(mpi.DOUBLE)
	}
	return o
}

// runRecvForms runs every form × shape receive on rank 1 of a job whose
// rank 0 runs feed once per receive (each under its own tag), and
// checks each outcome against want.
func runRecvForms(t *testing.T, opt mpi.RunOptions, ctx context.Context, feed func(w *mpi.Intracomm, tag int) error, want func(s recvShape, offset, tag int) recvOutcome) {
	t.Helper()
	opt.NP = 2
	err := mpi.RunWith(opt, func(env *mpi.Env) error {
		w := env.CommWorld()
		tag := 0
		for _, shape := range recvShapes {
			d, err := shape.dt()
			if err != nil {
				return err
			}
			for _, form := range recvForms {
				tag++
				if ctx != nil && form.blocking {
					continue
				}
				if w.Rank() == 0 {
					if feed != nil {
						if err := feed(w, tag); err != nil {
							return err
						}
					}
					continue
				}
				buf := freshBuf(form.offset + shape.span)
				st, err := form.recv(ctx, w, buf, shape.count, d, 0, tag)
				if got, exp := outcomeOf(st, err, buf), want(shape, form.offset, tag); got != exp {
					t.Errorf("%s, %s section:\n got  %+v (err %v)\n want %+v", form.name, shape.name, got, err, exp)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvFormsAgree(t *testing.T) {
	image := func(s recvShape, offset int, vals ...float64) string {
		b := freshBuf(offset + s.span)
		for i, v := range vals {
			b[offset+s.at[i]] = v
		}
		return fmt.Sprint(b)
	}

	t.Run("payload not a whole number of elements", func(t *testing.T) {
		// Nine bytes are one double and a torn second: a wire-format
		// error, and nothing of it — not the whole first element
		// either — is deposited.
		runRecvForms(t, mpi.RunOptions{}, nil,
			func(w *mpi.Intracomm, tag int) error { return w.Send(make([]byte, 9), 0, 9, mpi.BYTE, 1, tag) },
			func(s recvShape, off, tag int) recvOutcome {
				return recvOutcome{class: mpi.ErrIntern, source: 0, tag: tag, bytes: 9, elements: 0, buf: image(s, off)}
			})
	})

	t.Run("truncating message", func(t *testing.T) {
		// Four doubles into a section of two: filled to capacity,
		// MPI_ERR_TRUNCATE, Bytes the full incoming size.
		runRecvForms(t, mpi.RunOptions{}, nil,
			func(w *mpi.Intracomm, tag int) error {
				return w.Send([]float64{1, 2, 3, 4}, 0, 4, mpi.DOUBLE, 1, tag)
			},
			func(s recvShape, off, tag int) recvOutcome {
				return recvOutcome{class: mpi.ErrTruncate, source: 0, tag: tag, bytes: 32, elements: 2, buf: image(s, off, 1, 2)}
			})
	})

	t.Run("truncating rendezvous message", func(t *testing.T) {
		// The same above the eager limit, where a contiguous send lends
		// its buffer: the receiver takes what fits and the loan still
		// comes back (the sender's Send returns).
		runRecvForms(t, mpi.RunOptions{EagerLimit: 16}, nil,
			func(w *mpi.Intracomm, tag int) error {
				return w.Send([]float64{1, 2, 3, 4}, 0, 4, mpi.DOUBLE, 1, tag)
			},
			func(s recvShape, off, tag int) recvOutcome {
				return recvOutcome{class: mpi.ErrTruncate, source: 0, tag: tag, bytes: 32, elements: 2, buf: image(s, off, 1, 2)}
			})
	})

	t.Run("cancelled receive", func(t *testing.T) {
		// Nothing is ever sent; a wait under a dead context cancels the
		// unmatched receive (the blocking names have no such wait).
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		runRecvForms(t, mpi.RunOptions{}, ctx, nil,
			func(s recvShape, off, tag int) recvOutcome {
				return recvOutcome{class: -1, cancelled: true, source: mpi.ProcNull, tag: mpi.AnyTag, elements: 0, buf: image(s, off)}
			})
	})
}

// TestRecvFormsAgreeOnPeerLoss: the sender's endpoint dies with the
// receive pending (or about to be posted — the completion is the same);
// every name reports MPI_ERR_PROC_FAILED with an empty status and an
// untouched buffer. One job per form and shape, as a peer dies once.
func TestRecvFormsAgreeOnPeerLoss(t *testing.T) {
	for _, shape := range recvShapes {
		for _, form := range recvForms {
			t.Run(form.name+"/"+shape.name, func(t *testing.T) {
				err := mpi.RunWith(mpi.RunOptions{NP: 2, Device: "tcp", WrapDevice: faultOn(0, 1)}, func(env *mpi.Env) error {
					w := env.CommWorld()
					if w.Rank() == 0 {
						// The second frame trips the kill; neither
						// message is ever received.
						for i := 0; i < 2; i++ {
							w.Send([]byte{1}, 0, 1, mpi.BYTE, 1, 99) //nolint:errcheck // dying on purpose
						}
						return errFaultInjected
					}
					d, err := shape.dt()
					if err != nil {
						return err
					}
					buf := freshBuf(form.offset + shape.span)
					st, err := form.recv(nil, w, buf, shape.count, d, 0, 5)
					want := recvOutcome{class: mpi.ErrProcFailed, source: 0, tag: 5, buf: fmt.Sprint(freshBuf(form.offset + shape.span))}
					if got := outcomeOf(st, err, buf); got != want {
						t.Errorf("got  %+v (err %v)\nwant %+v", got, err, want)
					}
					return nil
				})
				onlyFaultInjected(t, err, 0)
			})
		}
	}
}
