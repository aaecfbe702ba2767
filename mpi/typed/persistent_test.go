package typed_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gompi/mpi"
	"gompi/mpi/typed"
)

// TestTypedPersistentPingPong: typed persistent send/recv over an
// Obj-routed struct type. Each Start must encode the send buffer's
// current contents and each completion must decode into the fixed
// receive buffer — once per activation, not once per handle.
func TestTypedPersistentPingPong(t *testing.T) {
	type pingPart struct {
		ID int64
		X  float64
	}
	const rounds = 25
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()
		peer := 1 - rank

		out := make([]pingPart, 3)
		in := make([]pingPart, 3)
		send, err := typed.SendInit(w, out, peer, 11)
		if err != nil {
			return err
		}
		defer send.Free()
		recv, err := typed.RecvInit(w, in, peer, 11)
		if err != nil {
			return err
		}
		defer recv.Free()

		for r := 0; r < rounds; r++ {
			for i := range out {
				out[i] = pingPart{ID: int64(rank*1000 + r*10 + i), X: float64(r) + 0.25}
			}
			if err := recv.Start(); err != nil {
				return err
			}
			if err := send.Start(); err != nil {
				return err
			}
			if _, err := send.Wait(); err != nil {
				return err
			}
			if _, err := recv.Wait(); err != nil {
				return err
			}
			for i, p := range in {
				want := pingPart{ID: int64(peer*1000 + r*10 + i), X: float64(r) + 0.25}
				if p != want {
					t.Errorf("rank %d round %d: in[%d] = %+v, want %+v", rank, r, i, p, want)
				}
			}
		}
		return nil
	})
}

// TestTypedPersistentAllreduce: typed persistent all-reduction cycled
// with changing operands; native path, no boxing.
func TestTypedPersistentAllreduce(t *testing.T) {
	const rounds = 30
	run(t, 3, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank, size := w.Rank(), w.Size()

		send := make([]float64, 2)
		recv := make([]float64, 2)
		red, err := typed.AllreduceInit(w, send, recv, typed.Sum[float64]())
		if err != nil {
			return err
		}
		defer red.Free()

		for r := 0; r < rounds; r++ {
			send[0] = float64(rank + r)
			send[1] = float64(rank * r)
			if err := red.Start(); err != nil {
				return err
			}
			if _, err := red.Wait(); err != nil {
				return err
			}
			var want0, want1 float64
			for p := 0; p < size; p++ {
				want0 += float64(p + r)
				want1 += float64(p * r)
			}
			if recv[0] != want0 || recv[1] != want1 {
				t.Errorf("rank %d round %d: got (%v, %v), want (%v, %v)",
					rank, r, recv[0], recv[1], want0, want1)
			}
		}
		return nil
	})
}

// TestTypedPersistentBcast: typed persistent broadcast over a named
// primitive (reinterpreted in place, zero-copy) and a barrier init.
func TestTypedPersistentBcast(t *testing.T) {
	type degreeC float64
	const rounds = 10
	run(t, 3, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank := w.Rank()

		buf := make([]degreeC, 4)
		bc, err := typed.BcastInit(w, buf, 1)
		if err != nil {
			return err
		}
		defer bc.Free()
		bar, err := typed.BarrierInit(w)
		if err != nil {
			return err
		}
		defer bar.Free()

		for r := 0; r < rounds; r++ {
			if rank == 1 {
				for i := range buf {
					buf[i] = degreeC(r*100 + i)
				}
			} else {
				for i := range buf {
					buf[i] = -1
				}
			}
			if err := bc.Start(); err != nil {
				return err
			}
			if _, err := bc.Wait(); err != nil {
				return err
			}
			for i, v := range buf {
				if want := degreeC(r*100 + i); v != want {
					t.Errorf("rank %d round %d: buf[%d] = %v, want %v", rank, r, i, v, want)
				}
			}
			if err := bar.Start(); err != nil {
				return err
			}
			if _, err := bar.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestTypedPersistentStartedThroughRaw: typed persistent handles are the
// classic ones, so mpi.StartAll starts them and each completes the
// activation just started, round after round — a native receive, an
// Obj-routed receive (decoded once per activation) and an all-reduction.
func TestTypedPersistentStartedThroughRaw(t *testing.T) {
	type boxed struct{ N int64 }
	const rounds = 8
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		rank, peer := w.Rank(), 1-w.Rank()

		nums, objs := make([]int32, 2), make([]boxed, 1)
		sum := make([]int64, 1)
		operand := []int64{0}
		recvNums, err := typed.RecvInit(w, nums, peer, 21)
		if err != nil {
			return err
		}
		defer recvNums.Free()
		recvObjs, err := typed.RecvInit(w, objs, peer, 22)
		if err != nil {
			return err
		}
		defer recvObjs.Free()
		red, err := typed.AllreduceInit(w, operand, sum, typed.Sum[int64]())
		if err != nil {
			return err
		}
		defer red.Free()

		for r := 0; r < rounds; r++ {
			operand[0] = int64(rank*100 + r)
			if err := mpi.StartAll([]*mpi.PersistentRequest{recvNums, recvObjs, red}); err != nil {
				return err
			}
			if err := typed.Send(w, []int32{int32(rank), int32(r)}, peer, 21); err != nil {
				return err
			}
			if err := typed.Send(w, []boxed{{N: int64(rank*10 + r)}}, peer, 22); err != nil {
				return err
			}
			for _, h := range []completer{recvNums, recvObjs, red} {
				if _, err := h.Wait(); err != nil {
					return fmt.Errorf("round %d: %w", r, err)
				}
			}
			if nums[0] != int32(peer) || nums[1] != int32(r) {
				t.Errorf("rank %d round %d: nums %v, want [%d %d]", rank, r, nums, peer, r)
			}
			if want := int64(peer*10 + r); objs[0].N != want {
				t.Errorf("rank %d round %d: objs[0].N = %d, want %d", rank, r, objs[0].N, want)
			}
			if want := int64(100 + 2*r); sum[0] != want {
				t.Errorf("rank %d round %d: sum %d, want %d", rank, r, sum[0], want)
			}
		}
		return nil
	})
}

// TestTypedObjSendStartedThroughStartAll: an Obj-routed typed SendInit
// whose buffer changes every round, started only through mpi.StartAll,
// sends each round's contents — the send re-reads the bound slice at
// every Start, whoever calls it.
func TestTypedObjSendStartedThroughStartAll(t *testing.T) {
	type roundMark struct {
		Round int64
		Note  string
	}
	const rounds = 4
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		buf := make([]roundMark, 2)
		var p *mpi.PersistentRequest
		var err error
		if w.Rank() == 0 {
			p, err = typed.SendInit(w, buf, 1, 41)
		} else {
			p, err = typed.RecvInit(w, buf, 0, 41)
		}
		if err != nil {
			return err
		}
		defer p.Free()
		for r := int64(0); r < rounds; r++ {
			if w.Rank() == 0 {
				buf[0], buf[1] = roundMark{r, "a"}, roundMark{r * 10, fmt.Sprint("b", r)}
			}
			if err := mpi.StartAll([]*mpi.PersistentRequest{p}); err != nil {
				return err
			}
			if _, err := mpi.WaitAll([]*mpi.Request{p.Request}); err != nil {
				return fmt.Errorf("round %d: %w", r, err)
			}
			if w.Rank() == 1 && (buf[0] != roundMark{r, "a"} || buf[1] != roundMark{r * 10, fmt.Sprint("b", r)}) {
				t.Errorf("round %d: received %+v", r, buf)
			}
		}
		return nil
	})
}

// settleProbe is the Obj-routed element type of
// TestTypedCompletionSettlesOncePerActivation.
type settleProbe struct{ N int64 }

// completer is the completion surface of a request and of a persistent
// request's current activation.
type completer interface {
	Wait() (*mpi.Status, error)
	WaitCtx(ctx context.Context) (*mpi.Status, error)
	Test() (*mpi.Status, bool, error)
}

// settleRow binds one receiving operation: recv on rank 1 (over the
// typed buffer), feed on rank 0 (over a classic []any stage); each
// returns the step that makes one activation on its side.
type settleRow struct {
	name string
	recv func(w *mpi.Intracomm, buf []settleProbe, tag int) (func() (completer, error), error)
	feed func(w *mpi.Intracomm, stage []any, tag int) (func() error, error)
}

var settleRows = []settleRow{
	{"Irecv",
		func(w *mpi.Intracomm, buf []settleProbe, tag int) (func() (completer, error), error) {
			return func() (completer, error) { return typed.Irecv(w, buf, 0, tag) }, nil
		},
		func(w *mpi.Intracomm, stage []any, tag int) (func() error, error) {
			return func() error { return w.Send(stage, 0, len(stage), mpi.OBJECT, 1, tag) }, nil
		}},
	{"Ibcast",
		func(w *mpi.Intracomm, buf []settleProbe, _ int) (func() (completer, error), error) {
			return func() (completer, error) { return typed.Ibcast(w, buf, 0) }, nil
		},
		func(w *mpi.Intracomm, stage []any, _ int) (func() error, error) {
			return func() error { return w.Bcast(stage, 0, len(stage), mpi.OBJECT, 0) }, nil
		}},
	{"RecvInit",
		func(w *mpi.Intracomm, buf []settleProbe, tag int) (func() (completer, error), error) {
			p, err := typed.RecvInit(w, buf, 0, tag)
			return func() (completer, error) { return p, p.Start() }, err
		},
		func(w *mpi.Intracomm, stage []any, tag int) (func() error, error) {
			return func() error { return w.Send(stage, 0, len(stage), mpi.OBJECT, 1, tag) }, nil
		}},
	{"BcastInit",
		func(w *mpi.Intracomm, buf []settleProbe, _ int) (func() (completer, error), error) {
			p, err := typed.BcastInit(w, buf, 0)
			return func() (completer, error) { return p, p.Start() }, err
		},
		func(w *mpi.Intracomm, stage []any, _ int) (func() error, error) {
			p, err := w.BcastInit(stage, 0, len(stage), mpi.OBJECT, 0)
			return func() error {
				if err := p.Start(); err != nil {
					return err
				}
				_, err := p.Wait()
				return err
			}, err
		}},
}

var settleModes = []struct {
	name     string
	complete func(completer) error
}{
	{"Wait", func(c completer) error { _, err := c.Wait(); return err }},
	{"WaitCtx", func(c completer) error { _, err := c.WaitCtx(context.Background()); return err }},
	{"Test", func(c completer) error {
		for {
			if _, done, err := c.Test(); done {
				return err
			}
			runtime.Gosched()
		}
	}},
}

// TestTypedCompletionSettlesOncePerActivation: one-shot and persistent,
// point-to-point and collective typed requests complete through the same
// settle. Each activation delivers an Obj-routed element followed by a
// stray string the typed buffer cannot hold: the first completion call
// fills the element and reports the wrong-typed element as an
// ErrType-class error; a second call reports the same error and does
// not deposit again (an element scribbled in between stays scribbled).
// Two activations per request.
func TestTypedCompletionSettlesOncePerActivation(t *testing.T) {
	run(t, 2, func(env *mpi.Env) error {
		w := env.CommWorld()
		typed.TypeOf[settleProbe]() // registers the type before rank 0 encodes it
		tag := 0
		for _, row := range settleRows {
			for _, mode := range settleModes {
				tag++
				where := row.name + "/" + mode.name
				if w.Rank() == 0 {
					stage := make([]any, 2)
					feed, err := row.feed(w, stage, tag)
					if err != nil {
						return err
					}
					for k := int64(1); k <= 2; k++ {
						stage[0], stage[1] = settleProbe{N: k}, "stray"
						if err := feed(); err != nil {
							return fmt.Errorf("%s: feed %d: %w", where, k, err)
						}
					}
					continue
				}
				buf := make([]settleProbe, 2)
				activate, err := row.recv(w, buf, tag)
				if err != nil {
					return err
				}
				for k := int64(1); k <= 2; k++ {
					req, err := activate()
					if err != nil {
						return fmt.Errorf("%s: activation %d: %w", where, k, err)
					}
					first := mode.complete(req)
					if mpi.ClassOf(first) != mpi.ErrType || !strings.Contains(first.Error(), "arrived as string") {
						t.Errorf("%s activation %d: first completion %v, want the wrong-typed element", where, k, first)
					}
					if buf[0] != (settleProbe{N: k}) {
						t.Errorf("%s activation %d: buf[0] = %+v, want N=%d", where, k, buf[0], k)
					}
					buf[0] = settleProbe{N: -7}
					if again := mode.complete(req); again == nil || first == nil || again.Error() != first.Error() {
						t.Errorf("%s activation %d: second completion %v, want %v again", where, k, again, first)
					}
					if buf[0] != (settleProbe{N: -7}) {
						t.Errorf("%s activation %d: the deposit ran twice: buf[0] = %+v", where, k, buf[0])
					}
				}
			}
		}
		return nil
	})
}
