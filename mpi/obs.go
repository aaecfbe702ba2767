package mpi

// The MPI_T-analogue tools surface (MPI-4 chapter 15 direction):
// enumeration and read-out of the rank's performance variables and
// access to the flight recorder. There are no control variables: the
// eager limit ("core.eager_limit", readable here) is fixed per job by
// RunOptions.EagerLimit or mpirun's -eager.
// Variables self-register by name inside the runtime layers
// ("core.sends_eager", "coll.scheds_parked", ...); this file is only
// the window onto them.

import "gompi/internal/obs"

// PerfVars enumerates the rank's performance variables — counters and
// gauges — sorted by name. The "transport.pool_*" entries
// are process-wide (one frame pool serves every in-process rank);
// everything else is this rank's own.
func (e *Env) PerfVars() []obs.VarValue {
	return e.proc.Obs().Snapshot()
}

// PerfVar reads one performance variable by name: any name PerfVars
// lists, at the value it would list.
func (e *Env) PerfVar(name string) (int64, bool) {
	return e.proc.Obs().Value(name)
}

// TraceEnabled reports whether this rank's flight recorder is on.
func (e *Env) TraceEnabled() bool { return e.proc.Recorder() != nil }

// DumpTrace flushes the rank's flight-recorder ring to
// dir/gompi-trace.<rank>.bin and returns the path. It is what Finalize
// runs automatically when GOMPI_TRACE is set; programmatic runs
// (RunOptions.Trace) call it wherever they want the dump. An error is
// returned when tracing is disabled.
func (e *Env) DumpTrace(dir string) (string, error) {
	r := e.proc.Recorder()
	if r == nil {
		return "", errf(ErrOther, "tracing is not enabled (GOMPI_TRACE / RunOptions.Trace)")
	}
	path, err := r.DumpFile(dir)
	if err != nil {
		return "", errf(ErrIntern, "dumping trace: %v", err)
	}
	return path, nil
}

// newRecorder builds the rank's flight recorder when tracing was
// requested (explicitly or via GOMPI_TRACE); nil otherwise.
func newRecorder(rank int, want bool) *obs.Recorder {
	if !want && !obs.EnvEnabled() {
		return nil
	}
	return obs.NewRecorder(rank, obs.RingFromEnv())
}
