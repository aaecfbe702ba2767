package mpi

import "gompi/internal/topo"

// Graphcomm is an intracommunicator with an attached graph topology
// (paper Fig. 1).
type Graphcomm struct {
	Intracomm
	graph *topo.Graph
}

// GraphParms carries the adjacency structure of a graph communicator in
// MPI's compressed index/edges form.
type GraphParms struct {
	Index []int
	Edges []int
}

// CreateGraph attaches a graph topology over the first len(index) ranks
// of the communicator (MPI_Graph_create); ranks beyond the graph get
// nil. reorder is accepted for API fidelity and ignored. Collective over
// the communicator.
func (c *Intracomm) CreateGraph(index, edges []int, reorder bool) (*Graphcomm, error) {
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	g, gerr := topo.NewGraph(len(index), index, edges)
	colour := Undefined
	if gerr == nil && c.rank < len(index) {
		colour = 0
	}
	sub, serr := c.Split(colour, c.rank)
	if serr != nil {
		return nil, serr
	}
	if gerr != nil {
		return nil, c.raise(errf(ErrTopology, "%v", gerr))
	}
	if len(index) > c.Size() {
		return nil, c.raise(errf(ErrTopology, "graph of %d nodes exceeds communicator size %d", len(index), c.Size()))
	}
	if sub == nil {
		return nil, nil
	}
	_ = reorder
	gc := &Graphcomm{Intracomm: *sub, graph: g}
	gc.name = c.name + ".graph"
	return gc, nil
}

// Get returns the graph adjacency structure (MPI_Graph_get).
func (gc *Graphcomm) Get() (*GraphParms, error) {
	if err := gc.ok(); err != nil {
		return nil, gc.raise(err)
	}
	return &GraphParms{
		Index: append([]int(nil), gc.graph.Index...),
		Edges: append([]int(nil), gc.graph.Edges...),
	}, nil
}

// Neighbours returns the neighbour ranks of rank
// (MPI_Graph_neighbors; the count is the slice length, per the binding's
// convention of letting arrays carry their size — paper §2.1).
func (gc *Graphcomm) Neighbours(rank int) ([]int, error) {
	if err := gc.ok(); err != nil {
		return nil, gc.raise(err)
	}
	ns, err := gc.graph.Neighbours(rank)
	if err != nil {
		return nil, gc.raise(errf(ErrTopology, "%v", err))
	}
	return ns, nil
}
