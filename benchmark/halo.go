package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"gompi/mpi"
)

// halo2d is the benchmark's own proxy of examples/jacobi: a haloN² grid,
// row-major, column-partitioned over haloNP ranks, each band with one
// halo column per side. Halo columns leave as persistent strided
// (Vector) sends and land through RecvIntoInit; the residual is a
// persistent MAX allreduce that overlaps the next sweep. Every batch
// restarts from the seed's grid and runs a fixed number of sweeps with
// no early exit, so its result can be held against a single-rank run of
// the same kernel.

// relax does one 5-point sweep over the band's own columns and returns
// the largest change. firstCol is the global index of local column 1;
// the global edge columns and the edge rows are fixed.
func relax(grid, next []float64, n, width, cols, firstCol int) float64 {
	local := 0.0
	for r := 1; r < n-1; r++ {
		row := r * width
		for c := 1; c <= cols; c++ {
			if gc := firstCol + c - 1; gc == 0 || gc == n-1 {
				next[row+c] = grid[row+c]
				continue
			}
			v := 0.25 * (grid[row-width+c] + grid[row+width+c] + grid[row+c-1] + grid[row+c+1])
			if d := math.Abs(v - grid[row+c]); d > local {
				local = d
			}
			next[row+c] = v
		}
	}
	return local
}

// bandHeat sums the band's own columns.
func bandHeat(grid []float64, n, width, cols int) float64 {
	s := 0.0
	for r := 0; r < n; r++ {
		for c := 1; c <= cols; c++ {
			s += grid[r*width+c]
		}
	}
	return s
}

// haloShared is what the ranks of one halo run have in common: the
// seed's initial grid and what a single-rank run makes of it.
type haloShared struct {
	init          []float64 // haloN × haloN, row-major
	sweeps        int
	wantHeat      []float64 // per rank: heat of its columns after `sweeps` sweeps
	wantRes       float64   // residual of the last sweep
	serialSweepUS float64
}

func newHaloShared(seed int64, sweeps int) *haloShared {
	const n = haloN
	sh := &haloShared{init: make([]float64, n*n), sweeps: sweeps, wantHeat: make([]float64, haloNP)}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < n; r++ {
		sh.init[r*n] = 1 // the hot left edge
		for c := 1; c < n; c++ {
			sh.init[r*n+c] = rng.Float64()
		}
	}
	// The reference: the same kernel on one band as wide as the grid.
	width := n + 2
	grid, next := make([]float64, n*width), make([]float64, n*width)
	loadBand(grid, sh.init, n, width, n, 0)
	copy(next, grid)
	start := time.Now()
	for s := 0; s < sweeps; s++ {
		sh.wantRes = relax(grid, next, n, width, n, 0)
		grid, next = next, grid
	}
	sh.serialSweepUS = float64(time.Since(start)) / float64(sweeps) / 1e3
	cols := n / haloNP
	for rank := range sh.wantHeat {
		for r := 0; r < n; r++ {
			for c := 0; c < cols; c++ {
				sh.wantHeat[rank] += grid[r*width+1+rank*cols+c]
			}
		}
	}
	return sh
}

// loadBand copies `cols` global columns starting at firstCol into the
// band's own columns.
func loadBand(band, global []float64, n, width, cols, firstCol int) {
	for r := 0; r < n; r++ {
		copy(band[r*width+1:r*width+1+cols], global[r*n+firstCol:r*n+firstCol+cols])
	}
}

type haloOp struct {
	sh            *haloShared
	rank          int
	cols, width   int
	left, right   int
	band0         []float64
	arr           [2][]float64 // grid and next; par says which is which
	par           int
	haloL, haloR  []float64
	recvL, recvR  *mpi.PersistentRequest
	sendL, sendR  [2]*mpi.PersistentRequest
	resIn, resOut []float64
	resRed        *mpi.PersistentRequest
	lastRes       float64
	opID          int64
}

func newHaloOp(env *mpi.Env, sh *haloShared) (*haloOp, error) {
	const n = haloN
	world := env.CommWorld()
	if world.Size() != haloNP {
		return nil, fmt.Errorf("halo2d is partitioned for %d ranks, got %d", haloNP, world.Size())
	}
	o := &haloOp{sh: sh, rank: world.Rank(), cols: n / haloNP}
	o.width = o.cols + 2
	o.band0 = make([]float64, n*o.width)
	loadBand(o.band0, sh.init, n, o.width, o.cols, o.rank*o.cols)
	o.arr[0], o.arr[1] = make([]float64, n*o.width), make([]float64, n*o.width)
	o.haloL, o.haloR = make([]float64, n), make([]float64, n)
	o.resIn, o.resOut = []float64{0}, []float64{0}

	o.left, o.right = o.rank-1, o.rank+1
	if o.left < 0 {
		o.left = mpi.ProcNull
	}
	if o.right >= haloNP {
		o.right = mpi.ProcNull
	}
	colType, err := mpi.TypeVector(n, 1, o.width, mpi.DOUBLE)
	if err != nil {
		return nil, err
	}
	colType.Commit()
	if o.recvL, err = world.RecvIntoInit(o.haloL, 0, n, mpi.DOUBLE, o.left, 2); err != nil {
		return nil, err
	}
	if o.recvR, err = world.RecvIntoInit(o.haloR, 0, n, mpi.DOUBLE, o.right, 1); err != nil {
		return nil, err
	}
	for i, g := range o.arr {
		if o.sendL[i], err = world.SendInit(g, 1, 1, colType, o.left, 1); err != nil {
			return nil, err
		}
		if o.sendR[i], err = world.SendInit(g, o.width-2, 1, colType, o.right, 2); err != nil {
			return nil, err
		}
	}
	o.resRed, err = world.AllreduceInit(o.resIn, 0, o.resOut, 0, 1, mpi.DOUBLE, mpi.MAX)
	return o, err
}

func (o *haloOp) prepare(int) {
	copy(o.arr[0], o.band0)
	copy(o.arr[1], o.band0)
	o.par = 0
	o.lastRes = -1
}

func (o *haloOp) run(sweeps int, sp *spanLog) error {
	const n = haloN
	if sweeps != o.sh.sweeps {
		return fmt.Errorf("halo2d: batch of %d sweeps, reference has %d", sweeps, o.sh.sweeps)
	}
	var kinds [5]int
	if sp != nil {
		for i, name := range []string{"sweep", "halo.start", "halo.wait", "compute", "allreduce.wait"} {
			kinds[i] = sp.kind(name)
		}
	}
	inFlight := false
	starts := make([]*mpi.PersistentRequest, 4)
	var ts [5]time.Time
	for s := 0; s < sweeps; s++ {
		grid, next := o.arr[o.par], o.arr[o.par^1]
		if sp != nil {
			ts[0] = time.Now()
		}
		// Receives first, so they are posted before the matching sends.
		starts[0], starts[1], starts[2], starts[3] = o.recvL, o.recvR, o.sendL[o.par], o.sendR[o.par]
		if err := mpi.StartAll(starts); err != nil {
			return err
		}
		if sp != nil {
			ts[1] = time.Now()
		}
		for _, r := range starts {
			if _, err := r.Wait(); err != nil {
				return err
			}
		}
		if o.left != mpi.ProcNull {
			for r := 0; r < n; r++ {
				grid[r*o.width] = o.haloL[r]
			}
		}
		if o.right != mpi.ProcNull {
			for r := 0; r < n; r++ {
				grid[r*o.width+o.width-1] = o.haloR[r]
			}
		}
		if sp != nil {
			ts[2] = time.Now()
		}
		local := relax(grid, next, n, o.width, o.cols, o.rank*o.cols)
		o.par ^= 1
		if sp != nil {
			ts[3] = time.Now()
		}
		// The previous sweep's reduction has been overlapping this one.
		if inFlight {
			if _, err := o.resRed.Wait(); err != nil {
				return err
			}
		}
		o.resIn[0] = local
		if err := o.resRed.Start(); err != nil {
			return err
		}
		inFlight = true
		if sp != nil {
			ts[4] = time.Now()
			o.opID++
			p := sp.add(kinds[0], -1, o.opID, ts[0], ts[4])
			for k := 1; k < 5; k++ {
				sp.add(kinds[k], p, o.opID, ts[k-1], ts[k])
			}
		}
	}
	if inFlight {
		if _, err := o.resRed.Wait(); err != nil {
			return err
		}
		o.lastRes = o.resOut[0]
	}
	return nil
}

// check holds the band's heat and the reduced residual against the
// single-rank run, to 1e-9 relative.
func (o *haloOp) check() int {
	heat := bandHeat(o.arr[o.par], haloN, o.width, o.cols)
	if !close9(heat, o.sh.wantHeat[o.rank]) || !close9(o.lastRes, o.sh.wantRes) {
		return 1
	}
	return 0
}

func close9(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}
