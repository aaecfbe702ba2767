package mpi_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gompi/internal/transport"
	"gompi/mpi"
)

// TestPeerLossMatrix: np4 over tcp, a collective of 8 DOUBLEs on a Dup
// of world — Barrier, Bcast from roots 0 and 1, Gather to root 1,
// Allreduce, Allgather — with each rank in turn the victim, whose
// endpoint dies (transport.Faulty) at one of two points: before the
// call (its first frame after the Dup, a stray send nobody receives,
// kills it, and the survivors call after that), or mid-call (its first
// frame of the call is delivered, its second kills it). A calibration
// run counts each rank's frames up to the end of the Dup, where both
// points sit. Each survivor that sees an error revokes the Dup, as ULFM
// asks of a program, and then every survivor returns within 3 s, with
// success (a survivor that had every frame it needed), MPI_ERR_PROC_FAILED
// or MPI_ERR_REVOKED.
//
// Sealed chan is left out: in one process no connection breaks, so that
// medium reports no peer's loss, and a survivor learns of a death only
// by sending to the dead rank.
func TestPeerLossMatrix(t *testing.T) {
	const np, count = 4, 8
	colls := []struct {
		name string
		call func(d *mpi.Intracomm, in, out []float64) error
	}{
		{"Barrier", func(d *mpi.Intracomm, _, _ []float64) error { return d.Barrier() }},
		{"Bcast root 0", func(d *mpi.Intracomm, in, _ []float64) error { return d.Bcast(in, 0, count, mpi.DOUBLE, 0) }},
		{"Bcast root 1", func(d *mpi.Intracomm, in, _ []float64) error { return d.Bcast(in, 0, count, mpi.DOUBLE, 1) }},
		{"Gather root 1", func(d *mpi.Intracomm, in, out []float64) error {
			return d.Gather(in, 0, count, mpi.DOUBLE, out, 0, count, mpi.DOUBLE, 1)
		}},
		{"Allreduce", func(d *mpi.Intracomm, in, out []float64) error {
			return d.Allreduce(in, 0, out, 0, count, mpi.DOUBLE, mpi.SUM)
		}},
		{"Allgather", func(d *mpi.Intracomm, in, out []float64) error {
			return d.Allgather(in, 0, count, mpi.DOUBLE, out, 0, count, mpi.DOUBLE)
		}},
	}

	var counters [np]*sendCounter
	dupped := make([]int64, np)
	err := runWatched(t, 30*time.Second, mpi.RunOptions{NP: np, Device: "tcp",
		WrapDevice: func(rank int, dev transport.Device) transport.Device {
			counters[rank] = &sendCounter{Device: dev}
			return counters[rank]
		}}, func(env *mpi.Env) error {
		w := env.CommWorld()
		d, err := w.Dup()
		if err != nil {
			return err
		}
		dupped[w.Rank()] = counters[w.Rank()].n.Load()
		return d.Barrier()
	})
	if err != nil {
		t.Fatalf("calibration: %v", err)
	}

	for _, c := range colls {
		for victim := range np {
			for _, mid := range []bool{false, true} {
				name := fmt.Sprintf("%s/victim%d/before", c.name, victim)
				killAfter := int(dupped[victim])
				if mid {
					name, killAfter = fmt.Sprintf("%s/victim%d/mid", c.name, victim), killAfter+1
				}
				t.Run(name, func(t *testing.T) {
					dead := make(chan struct{})
					var mu sync.Mutex
					classes := map[int]string{}
					err := runWatched(t, 20*time.Second, mpi.RunOptions{NP: np, Device: "tcp", WrapDevice: faultOn(victim, killAfter)}, func(env *mpi.Env) error {
						w := env.CommWorld()
						r := w.Rank()
						d, err := w.Dup()
						if err != nil {
							return err
						}
						in, out := make([]float64, count), make([]float64, np*count)
						if r == victim {
							if mid {
								_ = returnsWithin(3*time.Second, func() error { return c.call(d, in, out) })
							} else {
								_ = w.Send(in, 0, 1, mpi.DOUBLE, (r+1)%np, 99)
							}
							close(dead)
							return errVictimDown
						}
						if !mid {
							<-dead
						}
						start := time.Now()
						cerr := returnsWithin(3*time.Second, func() error { return c.call(d, in, out) })
						mu.Lock()
						classes[r] = mpi.ClassOf(cerr).String()
						mu.Unlock()
						switch cls := mpi.ClassOf(cerr); {
						case cerr == nil:
						case cls != mpi.ErrProcFailed && cls != mpi.ErrRevoked:
							return fmt.Errorf("rank %d: %v after %v, want success, %v or %v", r, cerr, time.Since(start), mpi.ErrProcFailed, mpi.ErrRevoked)
						default:
							return d.Revoke()
						}
						return nil
					})
					t.Logf("survivors' calls: %v", classes)
					if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("rank %d: %v", victim, errVictimDown)) || strings.Count(err.Error(), "rank ") != 1 {
						t.Fatalf("job error = %v, want only the victim's sentinel (survivors: %v)", err, classes)
					}
				})
			}
		}
	}
}
