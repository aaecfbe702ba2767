package mpi

import "gompi/internal/topo"

// Cartcomm is an intracommunicator with an attached cartesian topology
// (paper Fig. 1).
type Cartcomm struct {
	Intracomm
	cart *topo.Cart
}

// CartParms carries the geometry of a cartesian communicator: the result
// of Get, following the binding convention of returning aggregate results
// as objects instead of output arguments (paper §2.1).
type CartParms struct {
	Dims    []int
	Periods []bool
	Coords  []int
}

// ShiftParms carries the source and destination ranks of a Shift.
type ShiftParms struct {
	RankSource int
	RankDest   int
}

// DimsCreate fills the zero entries of dims with a balanced
// factorisation of nnodes (MPI_Dims_create). The filled slice is also
// returned for convenience.
func DimsCreate(nnodes int, dims []int) ([]int, error) {
	if err := topo.DimsCreate(nnodes, dims); err != nil {
		return nil, errf(ErrDims, "%v", err)
	}
	return dims, nil
}

// CreateCart attaches a cartesian topology over the first
// prod(dims) ranks of the communicator (MPI_Cart_create); ranks beyond
// the grid get nil. The reorder flag is accepted for API fidelity; rank
// order is always preserved in this implementation. Collective over the
// communicator.
func (c *Intracomm) CreateCart(dims []int, periods []bool, reorder bool) (*Cartcomm, error) {
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	cart, err := topo.NewCart(dims, periods)
	if err != nil {
		// Every rank must still take part in the collective context
		// allocation below, so defer the error until after it. MPI
		// declares mismatched collective arguments erroneous; raising
		// consistently on all ranks keeps the program recoverable.
		cart = nil
	}
	count := 0
	if cart != nil {
		count = cart.Count()
	}
	colour := Undefined
	if cart != nil && c.rank < count {
		colour = 0
	}
	sub, serr := c.Split(colour, c.rank)
	if serr != nil {
		return nil, serr
	}
	if cart == nil {
		return nil, c.raise(errf(ErrDims, "invalid cartesian geometry: %v", err))
	}
	if count > c.Size() {
		return nil, c.raise(errf(ErrDims, "grid of %d positions exceeds communicator size %d", count, c.Size()))
	}
	if sub == nil {
		return nil, nil
	}
	_ = reorder
	cc := &Cartcomm{Intracomm: *sub, cart: cart}
	cc.name = c.name + ".cart"
	return cc, nil
}

// Get returns the grid geometry and this process's coordinates
// (MPI_Cart_get / MPI_Cartdim_get).
func (cc *Cartcomm) Get() (*CartParms, error) {
	if err := cc.ok(); err != nil {
		return nil, cc.raise(err)
	}
	coords, err := cc.cart.Coords(cc.rank)
	if err != nil {
		return nil, cc.raise(errf(ErrTopology, "%v", err))
	}
	return &CartParms{
		Dims:    append([]int(nil), cc.cart.Dims...),
		Periods: append([]bool(nil), cc.cart.Periods...),
		Coords:  coords,
	}, nil
}

// CartRank maps coordinates to a rank (MPI_Cart_rank); out-of-range
// coordinates wrap in periodic dimensions.
func (cc *Cartcomm) CartRank(coords []int) (int, error) {
	if err := cc.ok(); err != nil {
		return 0, cc.raise(err)
	}
	r, err := cc.cart.Rank(coords)
	if err != nil {
		return 0, cc.raise(errf(ErrTopology, "%v", err))
	}
	return r, nil
}

// Coords maps a rank to its grid coordinates (MPI_Cart_coords).
func (cc *Cartcomm) Coords(rank int) ([]int, error) {
	if err := cc.ok(); err != nil {
		return nil, cc.raise(err)
	}
	xs, err := cc.cart.Coords(rank)
	if err != nil {
		return nil, cc.raise(errf(ErrTopology, "%v", err))
	}
	return xs, nil
}

// Shift returns the neighbour ranks for a displacement along one
// dimension (MPI_Cart_shift): receive from RankSource, send to RankDest.
// Off-grid neighbours in non-periodic dimensions are ProcNull.
func (cc *Cartcomm) Shift(direction, disp int) (*ShiftParms, error) {
	if err := cc.ok(); err != nil {
		return nil, cc.raise(err)
	}
	src, dst, err := cc.cart.Shift(cc.rank, direction, disp)
	if err != nil {
		return nil, cc.raise(errf(ErrTopology, "%v", err))
	}
	conv := func(r int) int {
		if r == topo.ProcNull {
			return ProcNull
		}
		return r
	}
	return &ShiftParms{RankSource: conv(src), RankDest: conv(dst)}, nil
}

// Sub projects the grid onto the dimensions with remain[i] true,
// returning this process's sub-grid communicator (MPI_Cart_sub).
// Collective over the communicator.
func (cc *Cartcomm) Sub(remain []bool) (*Cartcomm, error) {
	if err := cc.ok(); err != nil {
		return nil, cc.raise(err)
	}
	subGeom, colour, key, err := cc.cart.Sub(cc.rank, remain)
	if err != nil {
		return nil, cc.raise(errf(ErrTopology, "%v", err))
	}
	sub, serr := cc.Split(colour, key)
	if serr != nil {
		return nil, serr
	}
	out := &Cartcomm{Intracomm: *sub, cart: subGeom}
	out.name = cc.name + ".sub"
	return out, nil
}

// Topology geometry accessors.

// Ndims returns the grid dimensionality.
func (cc *Cartcomm) Ndims() int { return cc.cart.Ndims() }
