package mpi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"gompi/internal/core"
	"gompi/internal/transport"
	"gompi/internal/transport/shmipc"
)

// RunOptions configures an in-process SPMD job.
type RunOptions struct {
	// NP is the number of ranks.
	NP int
	// Device names the transport medium: "chan" (in-process channels,
	// the paper's Shared Memory mode, and the default), "shm" (the
	// cross-process shared-memory segment, exercised in-process) or
	// "tcp" (loopback sockets, the paper's Distributed Memory mode).
	Device string
	// EagerLimit overrides the eager/rendezvous threshold in bytes
	// (0 = default, negative = always rendezvous). It is the job's one
	// limit: every rank is built with it, and nothing changes it later.
	EagerLimit int
	// InboxDepth overrides the per-rank flow-control window in frames
	// ("chan" only).
	InboxDepth int
	// Trace arms each rank's flight recorder (see Env.DumpTrace for
	// retrieving the rings; GOMPI_TRACE=1 arms it too, and additionally
	// auto-dumps on Finalize).
	Trace bool
	// WrapDevice, when set, decorates each rank's device — the hook a
	// fault-injection test uses to interpose transport.Faulty on one
	// rank, and a harness to put its own cost model on the wire.
	WrapDevice func(rank int, dev transport.Device) transport.Device
}

// Run executes fn as an np-rank SPMD job, one goroutine per rank, over
// the in-process shared-memory device — the paper's SM mode. Each rank
// receives its own *Env (the analogue of the Java binding's initialized
// static MPI class). Finalize is called automatically for ranks whose fn
// returns without calling it.
func Run(np int, fn func(*Env) error) error {
	return RunWith(RunOptions{NP: np}, fn)
}

// RunWith is Run with explicit options.
func RunWith(opt RunOptions, fn func(*Env) error) error {
	if opt.NP <= 0 {
		return errf(ErrArg, "RunWith: NP must be positive, got %d", opt.NP)
	}
	devs, err := buildDevices(opt)
	if err != nil {
		return err
	}
	envs := make([]*Env, opt.NP)
	for i := range envs {
		cfg := core.Config{EagerLimit: opt.EagerLimit, Recorder: newRecorder(i, opt.Trace)}
		envs[i] = newEnv(devs[i], cfg)
	}

	errs := make([]error, opt.NP)
	var wg sync.WaitGroup
	for i := 0; i < opt.NP; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[rank] = fmt.Errorf("rank %d panicked: %v\n%s", rank, r, debug.Stack())
				}
			}()
			errs[rank] = fn(envs[rank])
		}(i)
	}
	wg.Wait()

	failed := false
	for _, e := range errs {
		if e != nil {
			failed = true
			break
		}
	}
	if failed {
		// A failed rank may have left peers out of step; skip the
		// finalize barrier and tear the fabric down directly.
		for _, e := range envs {
			e.finalized.Store(true)
			e.proc.Close()
			e.fab.Close()
		}
	} else {
		// Ranks that did not call Finalize themselves get a proper
		// collective shutdown; the barrier needs all ranks running
		// concurrently.
		var fwg sync.WaitGroup
		for i, e := range envs {
			if e.finalized.Load() {
				continue
			}
			fwg.Add(1)
			go func(rank int, env *Env) {
				defer fwg.Done()
				if err := env.Finalize(); err != nil && errs[rank] == nil {
					errs[rank] = err
				}
			}(i, e)
		}
		fwg.Wait()
	}

	var msgs []error
	for i, e := range errs {
		if e != nil {
			msgs = append(msgs, fmt.Errorf("rank %d: %w", i, e))
		}
	}
	return errors.Join(msgs...)
}

func buildDevices(opt RunOptions) ([]transport.Device, error) {
	out := make([]transport.Device, 0, opt.NP)
	switch opt.Device {
	case "tcp":
		devs, err := transport.NewLoopbackJob(opt.NP)
		if err != nil {
			return nil, errf(ErrIntern, "loopback job: %v", err)
		}
		for _, d := range devs {
			out = append(out, d)
		}
	case "shm":
		devs, err := shmipc.NewProcJob(opt.NP, shmipc.Config{})
		if err != nil {
			return nil, errf(ErrIntern, "shm job: %v", err)
		}
		out = devs
	case "", "chan":
		for _, d := range transport.NewShmJob(opt.NP, opt.InboxDepth) {
			out = append(out, d)
		}
	default:
		return nil, errf(ErrArg, "RunWith: unknown device %q (want chan, shm or tcp)", opt.Device)
	}
	if opt.WrapDevice != nil {
		for i, d := range out {
			out[i] = opt.WrapDevice(i, d)
		}
	}
	return out, nil
}
