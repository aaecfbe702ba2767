package bench

import (
	"fmt"
	"sync"
	"time"

	"gompi/internal/core"
	"gompi/internal/transport"
	"gompi/mpi"
)

// devicePair builds the two-rank fabric for a spec: shm for SM mode,
// loopback TCP for DM mode, with the spec's calibration profile applied.
func devicePair(s Spec) ([]transport.Device, error) {
	lp := linkProfile(s.Impl, s.Platform, s.Mode, s.Paper1999)
	var devs []*transport.Mux
	if s.Mode == DM {
		var err error
		if devs, err = transport.NewLoopbackJob(2); err != nil {
			return nil, err
		}
	} else {
		devs = transport.NewShmJob(2, 0)
	}
	out := make([]transport.Device, 2)
	for i, d := range devs {
		out[i] = shape(d, lp)
	}
	return out, nil
}

// wsockPingPong measures the raw transport: framed echo over the devices
// with no MPI software on top — the paper's Winsock-C baseline.
func wsockPingPong(s Spec) ([]Point, error) {
	devs, err := devicePair(s)
	if err != nil {
		return nil, err
	}
	defer devs[0].Close()
	defer devs[1].Close()

	done := make(chan error, 1)
	go func() {
		// Echo side: return every frame until a zero-length stop frame.
		// Sendv hands the frame's (pool-born) storage back through the
		// ownership protocol: over shm it travels by reference, over
		// TCP it returns to the pool after the write, so the echo adds
		// no garbage.
		for {
			f, err := devs[1].Recv()
			if err != nil {
				done <- err
				return
			}
			if len(f.Data) == 0 {
				f.Release()
				done <- nil
				return
			}
			if err := devs[1].Sendv(0, f.Data, nil, false); err != nil {
				done <- err
				return
			}
		}
	}()

	points := make([]Point, 0, len(s.Sizes))
	for _, size := range s.Sizes {
		reps := repsFor(s.Reps, size, s.Paper1999, s.Mode)
		// The frame ping-pongs: each round trip sends the storage the
		// echo just returned (over shm literally the same buffer, over
		// TCP a recirculating pooled one), so the steady state
		// allocates nothing.
		cur := transport.GetBuf(size)
		for w := 0; w < s.warmupFor(reps); w++ {
			if cur, err = pingOnce(devs[0], cur); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			if cur, err = pingOnce(devs[0], cur); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		points = append(points, newPoint(size, elapsed/time.Duration(2*reps)))
	}
	if err := devs[0].Send(1, nil); err != nil {
		return nil, err
	}
	if err := <-done; err != nil {
		return nil, err
	}
	return points, nil
}

func pingOnce(d transport.Device, buf []byte) ([]byte, error) {
	if err := d.Sendv(1, buf, nil, false); err != nil {
		return nil, err
	}
	f, err := d.Recv()
	if err != nil {
		return nil, err
	}
	return f.Data, nil
}

// nativePingPong measures the core engine called directly — the paper's
// native C MPI rows, without the OO binding's packing, validation or
// crossing costs.
func nativePingPong(s Spec) ([]Point, error) {
	devs, err := devicePair(s)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{EagerLimit: s.EagerLimit}
	p0 := core.NewProc(devs[0], cfg)
	p1 := core.NewProc(devs[1], cfg)
	defer p0.Close()
	defer p1.Close()

	const ctx, tag = 0, 5
	schedule := make([]int, 0, len(s.Sizes))
	repsOf := make(map[int]int, len(s.Sizes))
	for _, size := range s.Sizes {
		schedule = append(schedule, size)
		repsOf[size] = repsFor(s.Reps, size, s.Paper1999, s.Mode)
	}

	var wg sync.WaitGroup
	var echoErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The echo forwards the received payload by reference; over shm
		// the same buffer shuttles between the ranks for the whole run.
		for _, size := range schedule {
			for r := 0; r < s.warmupFor(repsOf[size])+repsOf[size]; r++ {
				rreq := p1.Irecv(ctx, 0, tag)
				rreq.Wait()
				payload := rreq.TakePayload()
				rreq.Recycle()
				sreq, err := p1.Isend(ctx, 1, 0, tag, payload, core.ModeStandard, false)
				if err != nil {
					echoErr = err
					return
				}
				sreq.Wait()
				sreq.Recycle()
			}
		}
	}()

	points := make([]Point, 0, len(s.Sizes))
	for _, size := range schedule {
		// cur is the outgoing payload; after each round trip the echoed
		// payload (over shm, the very same buffer) replaces it, so the
		// measured loop allocates nothing in steady state.
		cur := make([]byte, size)
		reps := repsOf[size]
		warm := s.warmupFor(reps)
		roundTrip := func() error {
			sreq, err := p0.Isend(ctx, 0, 1, tag, cur, core.ModeStandard, false)
			if err != nil {
				return err
			}
			rreq := p0.Irecv(ctx, 1, tag)
			rreq.Wait()
			sreq.Wait()
			cur = rreq.TakePayload()
			rreq.Recycle()
			sreq.Recycle()
			return nil
		}
		for w := 0; w < warm; w++ {
			if err := roundTrip(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			if err := roundTrip(); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		points = append(points, newPoint(size, elapsed/time.Duration(2*reps)))
	}
	wg.Wait()
	if echoErr != nil {
		return nil, echoErr
	}
	return points, nil
}

// bindingPingPong measures the full OO binding — the paper's mpiJava
// rows — including packing, argument validation and (in paper mode) the
// emulated JNI crossing cost.
func bindingPingPong(s Spec) ([]Point, error) {
	results := make([]Point, 0, len(s.Sizes))
	var mu sync.Mutex
	lp, jni := linkProfile(s.Impl, s.Platform, s.Mode, s.Paper1999), overheadFor(s)
	const tag = 5
	opt := mpi.RunOptions{
		NP:         2,
		EagerLimit: s.EagerLimit,
		WrapDevice: func(_ int, dev transport.Device) transport.Device { return shape(dev, lp) },
	}
	if s.Mode == DM {
		opt.Device = "tcp"
	}
	err := mpi.RunWith(opt, func(env *mpi.Env) error {
		world := env.CommWorld()
		rank := world.Rank()
		// The crossing is paid where mpiJava pays its JNI prologue:
		// once on entry to every Send and every Recv.
		send := func(buf []byte, peer int) error {
			spinWait(jni)
			return world.Send(buf, 0, len(buf), mpi.BYTE, peer, tag)
		}
		recv := func(buf []byte, peer int) error {
			spinWait(jni)
			_, err := world.Recv(buf, 0, len(buf), mpi.BYTE, peer, tag)
			return err
		}
		for _, size := range s.Sizes {
			reps := repsFor(s.Reps, size, s.Paper1999, s.Mode)
			warm := s.warmupFor(reps)
			buf := make([]byte, size)
			if rank == 1 {
				for r := 0; r < warm+reps; r++ {
					if err := recv(buf, 0); err != nil {
						return err
					}
					if err := send(buf, 0); err != nil {
						return err
					}
				}
				continue
			}
			roundTrip := func() error {
				if err := send(buf, 1); err != nil {
					return err
				}
				return recv(buf, 1)
			}
			for w := 0; w < warm; w++ {
				if err := roundTrip(); err != nil {
					return err
				}
			}
			start := time.Now()
			for r := 0; r < reps; r++ {
				if err := roundTrip(); err != nil {
					return err
				}
			}
			elapsed := time.Since(start)
			mu.Lock()
			results = append(results, newPoint(size, elapsed/time.Duration(2*reps)))
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Table1Row holds one environment's 1-byte latencies in both modes.
type Table1Row struct {
	Label  string
	SM, DM time.Duration
}

// Table1 reproduces the paper's Table 1: the 1-byte one-way latency of
// every environment in SM and DM modes.
func Table1(paper bool, reps int) ([]Table1Row, error) {
	specs := []Spec{
		{Impl: Wsock},
		{Impl: NativeC, Platform: WMPI},
		{Impl: JavaOO, Platform: WMPI},
		{Impl: NativeC, Platform: MPICH},
		{Impl: JavaOO, Platform: MPICH},
	}
	rows := make([]Table1Row, 0, len(specs))
	for _, base := range specs {
		row := Table1Row{Label: base.Label()}
		for _, mode := range []Mode{SM, DM} {
			s := base
			s.Mode = mode
			s.Paper1999 = paper
			s.Sizes = []int{1}
			s.Reps = reps
			pts, err := Run(s)
			if err != nil {
				return nil, fmt.Errorf("bench %s/%s: %w", s.Label(), mode, err)
			}
			if mode == SM {
				row.SM = pts[0].OneWay
			} else {
				row.DM = pts[0].OneWay
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure runs the four MPI curves of Figure 5 (SM) or Figure 6 (DM):
// {WMPI, MPICH} × {C, Java}. Keys are the paper's labels.
func Figure(mode Mode, paper bool, maxSize, reps int) (map[string][]Point, error) {
	out := make(map[string][]Point, 4)
	for _, platform := range []Platform{WMPI, MPICH} {
		for _, impl := range []Impl{NativeC, JavaOO} {
			s := Spec{
				Impl:      impl,
				Platform:  platform,
				Mode:      mode,
				Paper1999: paper,
				Sizes:     FigureSizes(maxSize),
				Reps:      reps,
			}
			pts, err := Run(s)
			if err != nil {
				return nil, fmt.Errorf("bench %s/%s: %w", s.Label(), mode, err)
			}
			out[s.Label()] = pts
		}
	}
	return out, nil
}
