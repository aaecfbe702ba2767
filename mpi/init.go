package mpi

import (
	"os"
	"strconv"

	"gompi/internal/core"
	"gompi/internal/launch"
	"gompi/internal/transport"
)

// Init initializes the MPI environment of a stand-alone process — the
// analogue of MPI.Init(args) in the Java binding (paper Fig. 3). Under
// cmd/mpirun it reads the job geometry from the environment, joins the
// rendezvous and builds the DM-mode socket mesh; run directly, it comes
// up as a singleton (one-rank world). The args slice is returned
// unchanged (the binding keeps the signature; this implementation passes
// no MPI arguments through the command line).
func Init(args []string) (*Env, []string, error) {
	sizeStr := os.Getenv(launch.EnvSize)
	if sizeStr == "" {
		dev := transport.NewShmJob(1, 0)[0]
		return newEnv(dev, core.Config{Recorder: newRecorder(0, false)}), args, nil
	}
	size, err := strconv.Atoi(sizeStr)
	if err != nil || size <= 0 {
		return nil, args, errf(ErrArg, "bad %s=%q", launch.EnvSize, sizeStr)
	}
	rank, err := strconv.Atoi(os.Getenv(launch.EnvRank))
	if err != nil || rank < 0 || rank >= size {
		return nil, args, errf(ErrArg, "bad %s=%q", launch.EnvRank, os.Getenv(launch.EnvRank))
	}
	cfg := core.Config{Recorder: newRecorder(rank, false)}
	if e := os.Getenv(launch.EnvEager); e != "" {
		if v, err := strconv.Atoi(e); err == nil {
			cfg.EagerLimit = v
		}
	}
	// mpirun names the medium ("shm", "tcp", "hybrid") or leaves "auto"
	// to pick the fastest fabric it provisioned (segment, coordinator,
	// or both).
	dev, err := launch.NewDevice(launch.DeviceFromEnv(), launch.SpecFromEnv(rank, size))
	if err != nil {
		return nil, args, errf(ErrIntern, "%v", err)
	}
	return newEnv(dev, cfg), args, nil
}

// Main runs fn as an SPMD job in whichever mode the process was
// launched: under cmd/mpirun (job geometry in the environment) the
// process is one rank and fn runs once between Init and Finalize;
// otherwise np ranks run in-process via Run. It is the one-line main
// shared by the examples.
func Main(np int, fn func(*Env) error) error {
	if os.Getenv(launch.EnvSize) == "" {
		return Run(np, fn)
	}
	env, _, err := Init(os.Args)
	if err != nil {
		return err
	}
	if err := fn(env); err != nil {
		// A failed rank skips the Finalize barrier (peers may be out
		// of step); mpirun surfaces the nonzero exit.
		return err
	}
	return env.Finalize()
}
