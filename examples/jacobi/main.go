// Jacobi: iterative 2-D heat diffusion on a column-partitioned grid —
// the paper's §2.2 motivating case for derived datatypes. The global
// N×N grid is linearized row-major into a one-dimensional array (Java
// and Go have no true multidimensional arrays, §2.2); each rank owns a
// band of columns plus one halo column per neighbour. The whole
// exchange is persistent (MPI_Send_init/MPI_Recv_init): the halo
// envelopes are validated and frozen once before the loop, and each
// sweep just Starts them — outgoing halo columns, strided sections of
// the local array, travel as MPI_TYPE_VECTOR datatypes (one persistent
// send per buffer of the swapped grid/next pair), and incoming halos
// land in preallocated contiguous buffers on the zero-copy RecvIntoInit
// path, so a steady-state sweep performs no validation and no
// allocation. Convergence is a persistent MAX allreduce
// (MPI_Allreduce_init) of the local residuals, overlapped with the next
// sweep: the activation started after sweep k is only waited for after
// sweep k+1's compute, so the collective's latency hides behind the
// relaxation instead of serializing every iteration (the check lags one
// sweep, costing at most one extra iteration).
//
// Checkpoint/restart rides on the parallel I/O subsystem: -checkpoint
// writes the converged (or iteration-capped) grid through a strided
// mpi.File view — each rank's column band is a MPI_TYPE_VECTOR over
// the row-major global matrix, so the collective WriteAtAll needs no
// caller-side gather loop — and -restore resumes a later run from that
// file, bit-exactly reproducing an uninterrupted run's trajectory. The
// checkpoint stores the global grid, so the restoring job may even use
// a different rank count. Periodic checkpoints (-checkpoint-every)
// overlap with the solve: the band is copied to a stable buffer, the
// collective write is started nonblocking (IwriteAtAll) against a
// temporary file and sweeps continue while it drains; the write is
// settled at the next checkpoint epoch (or at the end of the run) and
// the temporary is atomically renamed into place, so the checkpoint
// path never holds a half-written file.
//
// Fault tolerance (-survive) closes the loop with the ULFM repair
// primitives: when a sweep dies with MPI_ERR_PROC_FAILED or
// MPI_ERR_REVOKED, the survivors revoke the communicator (freeing peers
// still blocked on the dead rank), acknowledge the failure, Shrink to a
// fresh communicator, repartition the grid over the remaining ranks and
// resume from the latest periodic checkpoint (-checkpoint-every). The
// sweep is deterministic in the global grid state and independent of the
// partition, so the repaired run's result line is verbatim-identical to
// an undisturbed run's.
//
// Adding -respawn closes the other half of the loop with the dynamic
// process primitives: after shrinking, the survivors Spawn one
// replacement per lost rank, Merge the new world in (survivors ordered
// first, so ranks stay stable) and repartition at full size; the
// replacements find their parent world through Env.Parent, merge, and
// restore from the shared checkpoint like everyone else.
//
//	go run ./examples/jacobi [-n 96] [-np 4] [-iters 500] \
//	    [-checkpoint FILE] [-restore FILE] \
//	    [-survive] [-respawn] [-checkpoint-every N] [-dawdle DUR]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"gompi/mpi"
)

func main() {
	n := flag.Int("n", 96, "global grid side")
	np := flag.Int("np", 4, "number of ranks (SM mode)")
	iters := flag.Int("iters", 500, "max iterations (absolute, including restored ones)")
	tol := flag.Float64("tol", 1e-4, "convergence threshold")
	ckpt := flag.String("checkpoint", "", "write a checkpoint file at end of run")
	restore := flag.String("restore", "", "resume from a checkpoint file")
	survive := flag.Bool("survive", false, "on rank failure: revoke, shrink, restore from the -checkpoint file and keep sweeping")
	respawn := flag.Bool("respawn", false, "with -survive: after shrinking, spawn replacement ranks and merge back to full size")
	ckptEvery := flag.Int("checkpoint-every", 0, "write the -checkpoint file every N sweeps (0 = only at end)")
	dawdle := flag.Duration("dawdle", 0, "sleep per sweep, stretching the run so an external kill lands mid-solve")
	flag.Parse()
	// mpi.Main runs SM mode (np goroutine ranks) stand-alone, or this
	// process's single rank when launched under cmd/mpirun (DM mode).
	err := mpi.Main(*np, func(env *mpi.Env) error {
		return jacobi(env, params{
			n: *n, maxIters: *iters, tol: *tol,
			ckpt: *ckpt, restore: *restore,
			survive: *survive, respawn: *respawn, ckptEvery: *ckptEvery, dawdle: *dawdle,
		})
	})
	if err != nil {
		log.Fatal(err)
	}
}

// params carries the solver configuration through the repair loop.
type params struct {
	n, maxIters int
	tol         float64
	ckpt        string
	restore     string
	survive     bool
	respawn     bool
	ckptEvery   int
	dawdle      time.Duration
}

// ftError reports whether err is a peer failure or a revocation — the
// two classes the ULFM repair loop can recover from.
func ftError(err error) bool {
	switch mpi.ClassOf(err) {
	case mpi.ErrProcFailed, mpi.ErrRevoked:
		return true
	}
	return false
}

// jacobi runs the solve, and in -survive mode repairs the communicator
// and resumes after every recoverable failure: revoke (unblocks peers
// still waiting on the dead rank), acknowledge, shrink to the
// survivors, then restore from the latest checkpoint — or from scratch
// if none was written yet. Every survivor observes the failure (the
// residual allreduce spans all ranks), so all of them run this same
// repair sequence in program order, which is what Revoke/Shrink require.
func jacobi(env *mpi.Env, p params) error {
	comm := env.CommWorld()
	restoreFrom := p.restore
	// A spawned replacement rank joins the repaired world before its
	// first sweep: connect back through the parent's port, merge with
	// the survivors ordered first (so their ranks are stable), and pick
	// up the shared checkpoint.
	if parent, err := env.Parent(); err != nil {
		return err
	} else if parent != nil {
		merged, err := parent.Merge(true)
		if err != nil {
			return err
		}
		comm = merged
		if p.ckpt != "" {
			if _, statErr := os.Stat(p.ckpt); statErr == nil {
				restoreFrom = p.ckpt
			}
		}
		fmt.Fprintf(os.Stderr, "jacobi: joined as replacement rank %d/%d\n", comm.Rank(), comm.Size())
	}
	origSize := comm.Size()
	for {
		err := solve(env, comm, p, restoreFrom)
		if err == nil || !p.survive || !ftError(err) {
			return err
		}
		fmt.Fprintf(os.Stderr, "jacobi: rank %d/%d: %v; repairing\n", comm.Rank(), comm.Size(), err)
		if rerr := comm.Revoke(); rerr != nil {
			return errors.Join(err, rerr)
		}
		if aerr := comm.FailureAck(); aerr != nil {
			return errors.Join(err, aerr)
		}
		shrunk, serr := comm.Shrink()
		if serr != nil {
			return errors.Join(err, serr)
		}
		comm = shrunk
		// Resume from the latest checkpoint when one exists; otherwise
		// recompute from the initial state — either way the trajectory,
		// being deterministic in the grid, reproduces the undisturbed
		// run's exactly.
		restoreFrom = ""
		if p.ckpt != "" {
			if _, statErr := os.Stat(p.ckpt); statErr == nil {
				restoreFrom = p.ckpt
			}
		}
		fmt.Fprintf(os.Stderr, "jacobi: shrunk to %d ranks (rank %d), restoring from %q\n",
			comm.Size(), comm.Rank(), restoreFrom)
		// -respawn grows the world back: spawn one replacement per lost
		// rank, merge with the survivors first so their ranks (and rank
		// 0's reporting role) are stable, and repartition at full size.
		if p.respawn && comm.Size() < origSize {
			ic, sperr := comm.Spawn(os.Args[0], os.Args[1:], origSize-comm.Size())
			if sperr != nil {
				return errors.Join(err, sperr)
			}
			grown, merr := ic.Merge(false)
			if merr != nil {
				return errors.Join(err, merr)
			}
			comm = grown
			fmt.Fprintf(os.Stderr, "jacobi: respawned to %d ranks (rank %d)\n", comm.Size(), comm.Rank())
		}
		if p.n%comm.Size() != 0 {
			return fmt.Errorf("cannot repartition: grid side %d does not divide by %d survivors", p.n, comm.Size())
		}
	}
}

// checkpoint file layout, all MPI.DOUBLE: a hdrLen-element header
// [magic, grid side, completed sweeps, last drained residual (-1 if
// none)] followed by the n×n grid in global row-major order. The
// residual is the value the next iteration's lagged convergence check
// would have consumed, so a restored run reconstructs the overlapped
// reduction pipeline exactly.
const (
	ckptMagic  = 0x6a61636f // "jaco"
	ckptHdrLen = 4
)

// gridTypes builds the matching (file view, buffer section) pair for
// one rank's column band: in the file, n blocks of cols doubles with
// stride n (the band of a row-major n×n matrix); in memory the same
// shape with the local stride width.
func gridTypes(n, cols, width int) (ft, bt *mpi.Datatype, err error) {
	if ft, err = mpi.TypeVector(n, cols, n, mpi.DOUBLE); err != nil {
		return nil, nil, err
	}
	ft.Commit()
	if bt, err = mpi.TypeVector(n, cols, width, mpi.DOUBLE); err != nil {
		return nil, nil, err
	}
	bt.Commit()
	return ft, bt, nil
}

// writeCheckpoint collectively writes the header and the grid: rank 0
// writes the header independently through the identity view, then all
// ranks write their column bands through strided views in one
// collective two-phase WriteAtAll.
func writeCheckpoint(world *mpi.Intracomm, path string, grid []float64, n, cols, width, it int, lastRes float64) error {
	f, err := world.OpenFile(path, mpi.ModeCreate|mpi.ModeWronly)
	if err != nil {
		return err
	}
	if err := f.SetView(0, mpi.DOUBLE, mpi.DOUBLE); err != nil {
		return err
	}
	if world.Rank() == 0 {
		hdr := []float64{ckptMagic, float64(n), float64(it), lastRes}
		if _, err := f.WriteAt(0, hdr, 0, ckptHdrLen, mpi.DOUBLE); err != nil {
			return err
		}
	}
	ft, bt, err := gridTypes(n, cols, width)
	if err != nil {
		return err
	}
	if err := f.SetView(ckptHdrLen+world.Rank()*cols, mpi.DOUBLE, ft); err != nil {
		return err
	}
	if _, err := f.WriteAtAll(0, grid, 1, 1, bt); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// asyncCkpt is a periodic checkpoint in flight: the header is written,
// the band's collective write has been started from a stable copy of
// the grid, and sweeps continue while it drains. finish settles the
// write, syncs, closes and atomically renames the temporary into place.
type asyncCkpt struct {
	world *mpi.Intracomm
	f     *mpi.File
	req   *mpi.Request
	tmp   string
	path  string
}

// startCheckpoint begins an overlapped checkpoint write. band must be a
// stable snapshot the solver will not touch until finish: the write
// proceeds in the background. Collective — the gate that calls it must
// be uniform across ranks.
func startCheckpoint(world *mpi.Intracomm, path string, band []float64, n, cols, width, it int, lastRes float64) (*asyncCkpt, error) {
	tmp := path + ".tmp"
	f, err := world.OpenFile(tmp, mpi.ModeCreate|mpi.ModeWronly)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*asyncCkpt, error) {
		f.Close() //nolint:errcheck // best-effort teardown
		return nil, err
	}
	if err := f.SetView(0, mpi.DOUBLE, mpi.DOUBLE); err != nil {
		return fail(err)
	}
	if world.Rank() == 0 {
		hdr := []float64{ckptMagic, float64(n), float64(it), lastRes}
		if _, err := f.WriteAt(0, hdr, 0, ckptHdrLen, mpi.DOUBLE); err != nil {
			return fail(err)
		}
	}
	ft, bt, err := gridTypes(n, cols, width)
	if err != nil {
		return fail(err)
	}
	if err := f.SetView(ckptHdrLen+world.Rank()*cols, mpi.DOUBLE, ft); err != nil {
		return fail(err)
	}
	req, err := f.IwriteAtAll(0, band, 1, 1, bt)
	if err != nil {
		return fail(err)
	}
	return &asyncCkpt{world: world, f: f, req: req, tmp: tmp, path: path}, nil
}

// finish settles the in-flight band write and publishes the checkpoint:
// sync, collective close, then rank 0 renames the temporary over the
// real path — atomically, so -survive's restore never sees a torn file.
func (a *asyncCkpt) finish() error {
	if _, err := a.req.Wait(); err != nil {
		a.f.Close() //nolint:errcheck // best-effort teardown
		return err
	}
	if err := a.f.Sync(); err != nil {
		a.f.Close() //nolint:errcheck // best-effort teardown
		return err
	}
	if err := a.f.Close(); err != nil {
		return err
	}
	if a.world.Rank() == 0 {
		if err := os.Rename(a.tmp, a.path); err != nil {
			return err
		}
	}
	return nil
}

// abort tears the in-flight checkpoint down best-effort on the solve's
// error paths: it neither waits for the write nor syncs, and drops the
// temporary. Its Close is collective, yet it returns on every member even
// when world is dead or revoked: a Close that fails revokes the file's
// communicator, and so does the repair loop's Revoke of world, so no
// member waits on one that left.
func (a *asyncCkpt) abort() {
	a.f.Close() //nolint:errcheck // best-effort teardown
	if a.world.Rank() == 0 {
		os.Remove(a.tmp) //nolint:errcheck // best-effort teardown
	}
}

// readCheckpoint restores the rank's column band and returns the
// completed sweep count and last drained residual from the header.
func readCheckpoint(world *mpi.Intracomm, path string, grid []float64, n, cols, width int) (int, float64, error) {
	f, err := world.OpenFile(path, mpi.ModeRdonly)
	if err != nil {
		return 0, 0, err
	}
	if err := f.SetView(0, mpi.DOUBLE, mpi.DOUBLE); err != nil {
		return 0, 0, err
	}
	hdr := make([]float64, ckptHdrLen)
	st, err := f.ReadAt(0, hdr, 0, ckptHdrLen, mpi.DOUBLE)
	if err != nil {
		return 0, 0, err
	}
	if st.GetCount(mpi.DOUBLE) != ckptHdrLen || hdr[0] != ckptMagic {
		return 0, 0, fmt.Errorf("%s is not a jacobi checkpoint", path)
	}
	if int(hdr[1]) != n {
		return 0, 0, fmt.Errorf("checkpoint grid side %d does not match -n %d", int(hdr[1]), n)
	}
	ft, bt, err := gridTypes(n, cols, width)
	if err != nil {
		return 0, 0, err
	}
	if err := f.SetView(ckptHdrLen+world.Rank()*cols, mpi.DOUBLE, ft); err != nil {
		return 0, 0, err
	}
	st, err = f.ReadAtAll(0, grid, 1, 1, bt)
	if err != nil {
		return 0, 0, err
	}
	if got := st.GetCount(bt); got != 1 {
		return 0, 0, fmt.Errorf("checkpoint truncated: band read returned count %d", got)
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	return int(hdr[2]), hdr[3], nil
}

func solve(env *mpi.Env, world *mpi.Intracomm, p params, restore string) error {
	n, maxIters, tol, ckpt := p.n, p.maxIters, p.tol, p.ckpt
	rank, size := world.Rank(), world.Size()
	if n%size != 0 {
		return fmt.Errorf("grid side %d must divide by %d ranks", n, size)
	}
	cols := n / size
	width := cols + 2 // owned columns plus two halo columns

	// Row-major local band: grid[r*width + c], c=0 and c=width-1 halos.
	grid := make([]float64, n*width)
	next := make([]float64, n*width)

	// Boundary condition: the global left edge (the first owned column
	// of rank 0, local index 1) is hot.
	if rank == 0 {
		for r := 0; r < n; r++ {
			grid[r*width+1] = 1.0
			next[r*width+1] = 1.0
		}
	}

	// An outgoing halo column is a strided section: n blocks of 1
	// double, stride width — exactly MPI_TYPE_VECTOR over the
	// linearized array.
	colType, err := mpi.TypeVector(n, 1, width, mpi.DOUBLE)
	if err != nil {
		return err
	}
	colType.Commit()

	left, right := rank-1, rank+1
	if left < 0 {
		left = mpi.ProcNull
	}
	if right >= size {
		right = mpi.ProcNull
	}

	// Preallocated contiguous halo landing zones: incoming columns are
	// deposited here directly off the wire (receive-into), then scattered
	// into the strided halo column. The buffers live for the whole
	// solve — the halo exchange allocates nothing per iteration.
	haloL := make([]float64, n)
	haloR := make([]float64, n)

	// Persistent halo exchange: the envelopes are validated and frozen
	// here, once; each sweep just Starts them. The receives bind the
	// fixed landing zones on the zero-copy path. The sends are strided
	// column sections of whichever array currently holds the grid — the
	// grid/next swap alternates between two fixed arrays, so each
	// direction freezes one persistent send per array and the loop
	// Starts the pair matching the current parity.
	recvL, err := world.RecvIntoInit(haloL, 0, n, mpi.DOUBLE, left, 2)
	if err != nil {
		return err
	}
	recvR, err := world.RecvIntoInit(haloR, 0, n, mpi.DOUBLE, right, 1)
	if err != nil {
		return err
	}
	var sendL, sendR [2]*mpi.PersistentRequest
	for i, g := range [2][]float64{grid, next} {
		if sendL[i], err = world.SendInit(g, 1, 1, colType, left, 1); err != nil {
			return err
		}
		if sendR[i], err = world.SendInit(g, width-2, 1, colType, right, 2); err != nil {
			return err
		}
	}
	par := 0 // index of the array the grid variable currently aliases
	defer func() {
		for _, pr := range []*mpi.PersistentRequest{recvL, recvR, sendL[0], sendL[1], sendR[0], sendR[1]} {
			pr.Free() //nolint:errcheck // handle release at end of solve
		}
	}()

	// Resuming replaces the freshly initialized band with the
	// checkpointed one and skips the sweeps it already carries; the
	// trajectory from there is bit-identical to an uninterrupted run,
	// since the sweep is deterministic in the grid state. pipeRes
	// reconstructs the overlapped reduction pipeline: it is the
	// residual the first resumed iteration's lagged convergence check
	// would have drained (-1: none pending).
	it0 := 0
	pipeRes := -1.0
	if restore != "" {
		var err error
		if it0, pipeRes, err = readCheckpoint(world, restore, grid, n, cols, width); err != nil {
			return err
		}
		copy(next, grid)
	}

	// In-flight residual reduction, persistent: the MAX allreduce over
	// the fixed one-element buffers is planned once, and each sweep's
	// activation is a bare Start — re-pack, post the first round, done;
	// the Wait runs the rest. Started after sweep k, waited for after
	// sweep k+1's compute, so communication overlaps computation.
	resIn := []float64{0}
	resOut := []float64{0}
	resRed, err := world.AllreduceInit(resIn, 0, resOut, 0, 1, mpi.DOUBLE, mpi.MAX)
	if err != nil {
		return err
	}
	resInFlight := false
	defer resRed.Free() //nolint:errcheck // handle release at end of solve
	lastRes := pipeRes  // most recently drained residual, for the checkpoint header

	// Overlapped periodic checkpointing: the band is snapshotted into
	// ckptBuf and the collective write drains while later sweeps run.
	var pending *asyncCkpt
	var ckptBuf []float64
	if ckpt != "" && p.ckptEvery > 0 {
		ckptBuf = make([]float64, n*width)
	}
	defer func() {
		// Error paths (including -survive's recoverable failures) leave
		// the in-flight checkpoint torn down best-effort; success paths
		// have settled it and cleared pending.
		if pending != nil {
			pending.abort()
		}
	}()

	// A checkpoint taken at convergence carries a residual already
	// under tol; an uninterrupted run performs no sweeps past its
	// convergence break, so neither must a restored one.
	if pipeRes >= 0 && pipeRes < tol {
		maxIters = it0
	}

	start := env.Wtime()
	it := it0
	for ; it < maxIters; it++ {
		if p.dawdle > 0 {
			// Stretch the sweep so an externally injected kill (the CI
			// chaos job's SIGKILL) reliably lands mid-solve.
			time.Sleep(p.dawdle)
		}
		// Exchange halos: one StartAll activates the persistent receives
		// (listed first, so they are posted before the matching sends)
		// and the persistent sends bound to the array holding the
		// current grid; then settle all four and scatter the landed
		// halos.
		if err := mpi.StartAll([]*mpi.PersistentRequest{recvL, recvR, sendL[par], sendR[par]}); err != nil {
			return err
		}
		stL, err := recvL.Wait()
		if err != nil {
			return err
		}
		stR, err := recvR.Wait()
		if err != nil {
			return err
		}
		if _, err := sendL[par].Wait(); err != nil {
			return err
		}
		if _, err := sendR[par].Wait(); err != nil {
			return err
		}
		if left != mpi.ProcNull && stL.GetCount(mpi.DOUBLE) == n {
			for r := 0; r < n; r++ {
				grid[r*width] = haloL[r]
			}
		}
		if right != mpi.ProcNull && stR.GetCount(mpi.DOUBLE) == n {
			for r := 0; r < n; r++ {
				grid[r*width+width-1] = haloR[r]
			}
		}

		// Relax the interior.
		local := 0.0
		for r := 1; r < n-1; r++ {
			for c := 1; c <= cols; c++ {
				// Skip the fixed global edges.
				gc := rank*cols + (c - 1)
				if gc == 0 || gc == n-1 {
					next[r*width+c] = grid[r*width+c]
					continue
				}
				v := 0.25 * (grid[(r-1)*width+c] + grid[(r+1)*width+c] +
					grid[r*width+c-1] + grid[r*width+c+1])
				if d := math.Abs(v - grid[r*width+c]); d > local {
					local = d
				}
				next[r*width+c] = v
			}
		}
		grid, next = next, grid
		par ^= 1

		// The previous sweep's residual reduction has been overlapping
		// this sweep's halo exchange and relaxation; settle it now (on
		// the first resumed iteration, the checkpointed pipeRes stands
		// in for it). The reduced maximum is identical on every rank,
		// so all ranks take the same branch and the collective call
		// sequence stays aligned.
		settled := -1.0
		if resInFlight {
			if _, err := resRed.Wait(); err != nil {
				return err
			}
			resInFlight = false
			settled = resOut[0]
		} else if pipeRes >= 0 {
			settled, pipeRes = pipeRes, -1
		}
		if settled >= 0 {
			lastRes = settled
			if settled < tol {
				// Sweep `it` has completed; count it before leaving so
				// `it` uniformly means sweeps carried by the grid.
				it++
				break
			}
		}

		// Periodic checkpoint for -survive: snapshotted from `next`,
		// which after the swap holds the grid with exactly `it` sweeps,
		// paired with `settled` — the residual of sweep it-1 — so the
		// header keeps the (sweeps S, residual of sweep S-1) invariant
		// the restore path reconstructs the reduction pipeline from. The
		// gate is uniform (it and the reduced residual agree on every
		// rank), keeping the collective write aligned. The write itself
		// overlaps the following sweeps: settle the previous epoch's
		// write if it is still in flight, snapshot the band into the
		// stable buffer, and start the next one nonblocking.
		if ckpt != "" && p.ckptEvery > 0 && settled >= 0 && it%p.ckptEvery == 0 {
			if pending != nil {
				if err := pending.finish(); err != nil {
					return err
				}
				pending = nil
			}
			copy(ckptBuf, next)
			if pending, err = startCheckpoint(world, ckpt, ckptBuf, n, cols, width, it, settled); err != nil {
				return err
			}
		}

		// Launch this sweep's residual reduction; the activation
		// completes in the background while the next sweep computes
		// (collectives travel on their own context, so they cannot
		// interfere with the halo point-to-point traffic).
		resIn[0] = local
		if err := resRed.Start(); err != nil {
			return err
		}
		resInFlight = true
	}
	// Drain the final in-flight reduction so every rank has made the
	// same collective calls before the closing Reduce.
	if resInFlight {
		if _, err := resRed.Wait(); err != nil {
			return err
		}
		resInFlight = false
		lastRes = resOut[0]
	}
	// Settle the last overlapped periodic checkpoint before the final
	// (blocking) one, so the two writers never race on the same path.
	if pending != nil {
		if err := pending.finish(); err != nil {
			return err
		}
		pending = nil
	}
	elapsed := env.Wtime() - start

	if ckpt != "" {
		if err := writeCheckpoint(world, ckpt, grid, n, cols, width, it, lastRes); err != nil {
			return err
		}
	}

	// Report the global heat content from rank 0. Summed in global
	// column order — per-column sums gathered in rank order, folded
	// sequentially at the root — so the value is bit-identical for any
	// rank count: a -survive run that shrank mid-solve must reproduce
	// the undisturbed run's result line verbatim, and a SUM reduction
	// tree's fold order would depend on the partition.
	colSums := make([]float64, cols)
	for c := 1; c <= cols; c++ {
		s := 0.0
		for r := 0; r < n; r++ {
			s += grid[r*width+c]
		}
		colSums[c-1] = s
	}
	allSums := make([]float64, n)
	if err := world.Gather(colSums, 0, cols, mpi.DOUBLE, allSums, 0, cols, mpi.DOUBLE, 0); err != nil {
		return err
	}
	out := []float64{0}
	for _, s := range allSums {
		out[0] += s
	}
	// A closing barrier keeps the repaired communicator's teardown
	// aligned: in -survive mode the world barrier in Finalize is skipped
	// (the world is revoked), so this is what stops a fast rank from
	// closing the fabric under a peer still draining the gather.
	if err := world.Barrier(); err != nil {
		return err
	}
	if rank == 0 {
		fmt.Printf("jacobi: %d ranks, %dx%d grid, %d iterations, heat=%.4f, %.3fs\n",
			size, n, n, it, out[0], elapsed)
		// A timing-free line with full precision: a restored run must
		// reproduce an uninterrupted run's values bit-exactly (the CI
		// smoke job compares these lines verbatim).
		fmt.Printf("jacobi result: iters=%d heat=%.17g residual=%.17g\n", it, out[0], lastRes)
	}
	return nil
}
