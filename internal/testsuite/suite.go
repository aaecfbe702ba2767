// Package testsuite is the reproduction of the paper's functionality
// gate (§3.4): the IBM MPI test suite — 57 programs covering collective
// operations, communicators, data types, environmental inquiries,
// groups, point-to-point and virtual topologies — which the authors
// translated to mpiJava and ran unaltered in both Shared Memory and
// Distributed Memory modes. Here each program is an SPMD function over
// the public mpi binding; the suite runner executes every program under
// both the shm device (SM) and the loopback TCP device (DM).
package testsuite

import (
	"fmt"
	"sort"
	"strings"

	"gompi/mpi"
)

// Program is one test program of the suite.
type Program struct {
	// Name identifies the program, IBM-suite style (e.g. "allred").
	Name string
	// Category is one of the paper's seven areas.
	Category string
	// NP is the process count the program runs with.
	NP int
	// Run executes the caller's rank; a non-nil error fails the
	// program.
	Run func(env *mpi.Env) error
}

// The seven categories of the paper's §3.4.
const (
	CatCollective = "collective"
	CatComm       = "communicators"
	CatDatatype   = "datatypes"
	CatEnv        = "environment"
	CatGroup      = "groups"
	CatPt2pt      = "point-to-point"
	CatTopo       = "topology"
)

var programs []Program

func register(p Program) {
	if p.NP == 0 {
		p.NP = 4
	}
	programs = append(programs, p)
}

// Programs returns the suite, ordered by category then name.
func Programs() []Program {
	out := append([]Program(nil), programs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Category != out[j].Category {
			return out[i].Category < out[j].Category
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Result is the outcome of one program under one mode.
type Result struct {
	Program Program
	Mode    string // "SM" or "DM"
	Err     error
}

// RunProgram executes one program under the selected transport.
func RunProgram(p Program, tcp bool) error {
	opt := mpi.RunOptions{NP: p.NP}
	if tcp {
		opt.Device = "tcp"
	}
	return mpi.RunWith(opt, p.Run)
}

// RunProgramOpt executes one program with explicit run options (used to
// sweep the suite across protocol configurations).
func RunProgramOpt(p Program, opt mpi.RunOptions) error {
	opt.NP = p.NP
	return mpi.RunWith(opt, p.Run)
}

// RunProgramDiag is RunProgramOpt plus a post-mortem: when the program
// fails, diag holds every rank's performance-variable snapshot (the
// MPI_T-style registry) at the time of death — which protocols fired,
// how deep the unexpected queue got, whether a peer was declared lost.
// The counters are plain atomics, so reading them after the failed
// world is torn down is safe.
func RunProgramDiag(p Program, opt mpi.RunOptions) (err error, diag string) {
	opt.NP = p.NP
	envs := make([]*mpi.Env, p.NP)
	err = mpi.RunWith(opt, func(env *mpi.Env) error {
		envs[env.Rank()] = env
		return p.Run(env)
	})
	if err == nil {
		return nil, ""
	}
	var b strings.Builder
	for rank, env := range envs {
		if env == nil {
			continue
		}
		fmt.Fprintf(&b, "rank %d perf vars:\n", rank)
		for _, v := range env.PerfVars() {
			if v.Value == 0 && v.Aux == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-24s %d\n", v.Name, v.Value)
		}
	}
	return err, b.String()
}

// RunAll executes the whole suite under both modes, mirroring the
// paper's "all codes ran in both modes without alterations".
func RunAll() []Result {
	var out []Result
	for _, p := range Programs() {
		for _, tcp := range []bool{false, true} {
			mode := "SM"
			if tcp {
				mode = "DM"
			}
			out = append(out, Result{Program: p, Mode: mode, Err: RunProgram(p, tcp)})
		}
	}
	return out
}

// failf builds a program-failure error.
func failf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// expectEq fails unless got equals want.
func expectEq[T comparable](what string, got, want T) error {
	if got != want {
		return failf("%s: got %v, want %v", what, got, want)
	}
	return nil
}

// expectInts compares int slices.
func expectInts(what string, got, want []int32) error {
	if len(got) != len(want) {
		return failf("%s: got %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return failf("%s: index %d: got %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}
