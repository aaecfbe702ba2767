package main

import (
	"fmt"
	"sync"
	"time"

	"gompi/internal/coll"
	"gompi/internal/core"
	"gompi/internal/dtype"
	"gompi/internal/transport"
)

// The ladder re-issues a workload's loop, at the workload's message
// size, on each lower rung — device, core engine, classic binding,
// typed binding — and times each from outside. A rung's self time is
// its round trip less that of the rung below.

// stepOp makes a rankOp of a step with no buffers to prepare or check.
type stepOp func() error

func (stepOp) prepare(int) {}
func (stepOp) check() int  { return 0 }
func (s stepOp) run(n int, _ *spanLog) error {
	for i := 0; i < n; i++ {
		if err := s(); err != nil {
			return err
		}
	}
	return nil
}

// sampleLoop times step on the calling goroutine, as a one-rank job of
// the harness with the batch size found in the warm-up, and returns the
// median batch's mean in µs.
func sampleLoop(p plan, step func() error) (float64, error) {
	p.batch = 0
	h := newHarness(1, p, 0)
	if err := h.lead(stepOp(step), nil, func(bool) {}); err != nil {
		return 0, err
	}
	return median(h.batchUS), nil
}

func newDevices(device string, n int) ([]transport.Device, error) {
	out := make([]transport.Device, n)
	switch device {
	case "chan":
		for i, d := range transport.NewShmJob(n, 0) {
			out[i] = d
		}
	case "tcp":
		devs, err := transport.NewLoopbackJob(n)
		if err != nil {
			return nil, err
		}
		for i, d := range devs {
			out[i] = d
		}
	default:
		return nil, fmt.Errorf("no %q device on the ladder", device)
	}
	return out, nil
}

// takeFrame takes over the storage behind a received frame so it can be
// shipped straight back.
func takeFrame(f transport.Frame) []byte {
	if f.Payload != nil {
		b := f.Payload
		f.DetachPayload()
		f.Release()
		return b
	}
	return f.Data
}

// transportRT is the bottom rung: a Device.Sendv/Recv echo of `size`
// bytes with no MPI software above it.
func transportRT(device string, size int, p plan) (float64, error) {
	devs, err := newDevices(device, 2)
	if err != nil {
		return 0, err
	}
	defer devs[0].Close()
	defer devs[1].Close()
	echoErr := make(chan error, 1)
	go func() {
		for {
			f, err := devs[1].Recv()
			if err != nil {
				echoErr <- err
				return
			}
			if len(f.Data) == 0 && f.Payload == nil { // the stop frame
				f.Release()
				echoErr <- nil
				return
			}
			if err := devs[1].Sendv(0, nil, takeFrame(f), true); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	cur := transport.GetBuf(size)
	us, err := sampleLoop(p, func() error {
		if err := devs[0].Sendv(1, nil, cur, true); err != nil {
			return err
		}
		f, err := devs[0].Recv()
		if err != nil {
			return err
		}
		cur = takeFrame(f)
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("transport rung (%s): %w", device, err)
	}
	transport.PutBuf(cur)
	if err := devs[0].Send(1, nil); err != nil {
		return 0, err
	}
	return us, <-echoErr
}

// coreRT is the engine rung: a Proc.Isend/Irecv ping-pong on bare
// core.Procs. The payload is one pool-born buffer travelling by
// reference (and, over tcp, recirculating through the frame pool),
// which is what the paper's native-MPI rows correspond to.
func coreRT(device string, size int, p plan) (float64, error) {
	devs, err := newDevices(device, 2)
	if err != nil {
		return 0, err
	}
	p0 := core.NewProc(devs[0], core.Config{})
	p1 := core.NewProc(devs[1], core.Config{})
	defer p0.Close()
	defer p1.Close()
	const ctx, tagStop = 0, 6
	var wg sync.WaitGroup
	var echoErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			rreq := p1.Irecv(ctx, 0, core.AnyTag)
			st := rreq.Wait()
			if st.Err != nil || st.Tag == tagStop {
				echoErr = st.Err
				rreq.Recycle()
				return
			}
			payload := rreq.TakePayload()
			rreq.Recycle()
			sreq, err := p1.Isend(ctx, 1, 0, tagPing, payload, core.ModeStandard, true)
			if err != nil {
				echoErr = err
				return
			}
			sreq.Wait()
			sreq.Recycle()
		}
	}()
	cur := transport.GetBuf(size)
	us, err := sampleLoop(p, func() error {
		sreq, err := p0.Isend(ctx, 0, 1, tagPing, cur, core.ModeStandard, true)
		if err != nil {
			return err
		}
		rreq := p0.Irecv(ctx, 1, tagPing)
		st := rreq.Wait()
		sreq.Wait()
		cur = rreq.TakePayload()
		rreq.Recycle()
		sreq.Recycle()
		return st.Err
	})
	if err != nil {
		return 0, fmt.Errorf("core rung: %w", err)
	}
	transport.PutBuf(cur)
	sreq, err := p0.Isend(ctx, 0, 1, tagStop, nil, core.ModeStandard, false)
	if err != nil {
		return 0, err
	}
	sreq.Wait()
	wg.Wait()
	return us, echoErr
}

// bindingRT is the mpi and typed rungs: the p2p workload's own loop at
// `size` bytes, with the batch size found in the warm-up.
func bindingRT(device string, size int, p plan, cfg runCfg) (float64, error) {
	w := &workload{name: "ladder", kind: kindP2P, np: 2, device: device, bytes: size}
	cfg.plan = p
	cfg.plan.batch = 0
	res, err := measure(w, cfg, newShared(w, cfg.seed, 0))
	if err != nil {
		return 0, err
	}
	if res.failed != 0 {
		return 0, fmt.Errorf("binding rung: %d echoes failed verification", res.failed)
	}
	return res.p50(), nil
}

// packTimes times dtype.Pack and dtype.Unpack on the workload's own
// buffer shape: `count` contiguous items for the p2p and collective
// workloads, one strided grid column for halo2d.
func packTimes(w *workload, p plan) (packUS, unpackUS float64, wire int, err error) {
	var buf any
	var t *dtype.Type
	count := 1
	switch w.kind {
	case kindHalo:
		width := haloN/haloNP + 2
		buf = make([]float64, haloN*width)
		if t, err = dtype.Vector(haloN, 1, width, dtype.BasicType(dtype.F64)); err != nil {
			return 0, 0, 0, err
		}
		t.Commit()
	case kindAllreduce:
		buf, t, count = make([]float64, w.bytes/8), dtype.BasicType(dtype.F64), w.bytes/8
	case kindMatch:
		buf, t = make([]int64, 1), dtype.BasicType(dtype.I64)
	default:
		buf, t, count = make([]byte, w.bytes), dtype.BasicType(dtype.U8), w.bytes
	}
	dst := make([]byte, 0, t.WireBytes(count))
	var packed []byte
	if packUS, err = sampleLoop(p, func() error {
		packed, err = dtype.Pack(dst, buf, 0, count, t)
		return err
	}); err != nil {
		return 0, 0, 0, fmt.Errorf("dtype.Pack: %w", err)
	}
	if unpackUS, err = sampleLoop(p, func() error {
		_, err := dtype.Unpack(packed, buf, 0, count, t)
		return err
	}); err != nil {
		return 0, 0, 0, fmt.Errorf("dtype.Unpack: %w", err)
	}
	return packUS, unpackUS, len(packed), nil
}

// collOp is the collective rung's loop: coll.Comm.Allreduce called
// directly on a bare core.Proc, below the binding's validation, packing
// and deposit.
type collOp struct {
	c    *coll.Comm
	mine []float64
	sum  float64
	last any
}

func (o *collOp) prepare(int) { o.last = nil }

func (o *collOp) run(n int, _ *spanLog) error {
	for i := 0; i < n; i++ {
		res, err := o.c.Allreduce(o.mine, coll.Sum)
		if err != nil {
			return err
		}
		o.last = res
	}
	return nil
}

func (o *collOp) check() int {
	got, ok := o.last.([]float64)
	if !ok || len(got) != len(o.mine) || got[0] != o.sum || got[len(got)-1] != o.sum {
		return 1
	}
	return 0
}

// collRT times one Allreduce of `count` doubles over np bare Procs on
// the chan device, driven by the same harness as the workloads.
func collRT(np, count int, p plan, timer time.Duration) (float64, error) {
	devs, err := newDevices("chan", np)
	if err != nil {
		return 0, err
	}
	p.batch = 0
	h := newHarness(np, p, timer)
	group := make([]int, np)
	for i := range group {
		group[i] = i
	}
	errs := make([]error, np)
	var wg sync.WaitGroup
	for rank := 0; rank < np; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			proc := core.NewProc(devs[rank], core.Config{})
			defer proc.Close()
			op := &collOp{
				c:    &coll.Comm{P: proc, Ctx: 1, Rank: rank, Size: np, World: func(gr int) int { return group[gr] }},
				mine: make([]float64, count),
				sum:  float64(np * (np + 1) / 2),
			}
			for i := range op.mine {
				op.mine[i] = float64(rank + 1)
			}
			mark := func(bool) {}
			if rank == 0 {
				errs[rank] = h.lead(op, nil, mark)
			} else {
				errs[rank] = h.follow(rank, op, mark)
			}
			// No rank may close its device under a peer still
			// draining the last allreduce.
			if errs[rank] == nil {
				errs[rank] = op.c.Barrier()
			}
		}(rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("coll rung: %w", err)
		}
	}
	if f := h.failures(); f != 0 {
		return 0, fmt.Errorf("coll rung: %d results failed verification", f)
	}
	return median(h.batchUS), nil
}
