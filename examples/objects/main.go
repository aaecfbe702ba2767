// Objects: the paper's §2.2 proposal — message buffers of serializable
// objects travelling as MPI.OBJECT, serialized automatically in the send
// wrapper and unserialized at the destination (Go's gob standing in for
// Java object serialization). As mpiJava takes a Ticket[] as it is, an
// OBJECT buffer here is any slice: the ranks send and receive []Ticket
// directly. A pipeline of ranks passes a work ticket around a ring; each
// rank appends its signature and forwards it.
//
//	go run ./examples/objects [-np 4]
package main

import (
	"flag"
	"fmt"
	"log"

	"gompi/mpi"
)

// Ticket is an arbitrary serializable object graph.
type Ticket struct {
	ID        int
	Hops      []string
	Payload   map[string]float64
	Completed bool
}

func main() {
	np := flag.Int("np", 4, "number of ranks (SM mode)")
	flag.Parse()
	// mpi.Main runs SM mode (np goroutine ranks) stand-alone, or this
	// process's single rank when launched under cmd/mpirun (DM mode).
	if err := mpi.Main(*np, ring); err != nil {
		log.Fatal(err)
	}
}

func ring(env *mpi.Env) error {
	// Every rank registers the concrete types its OBJECT buffers carry
	// (the analogue of implementing java.io.Serializable).
	mpi.RegisterObject(Ticket{})
	mpi.RegisterObject(map[string]float64{})

	world := env.CommWorld()
	rank, size := world.Rank(), world.Size()
	next, prev := (rank+1)%size, (rank-1+size)%size

	if rank == 0 {
		tickets := []Ticket{
			{ID: 1, Payload: map[string]float64{"load": 0.5}},
			{ID: 2, Payload: map[string]float64{"load": 1.25}},
		}
		if err := world.Send(tickets, 0, len(tickets), mpi.OBJECT, next, 1); err != nil {
			return err
		}
		// Collect the completed tickets after the full circuit.
		in := make([]Ticket, len(tickets))
		st, err := world.Recv(in, 0, len(in), mpi.OBJECT, prev, 1)
		if err != nil {
			return err
		}
		for _, t := range in[:st.GetCount(mpi.OBJECT)] {
			if len(t.Hops) != size-1 {
				return fmt.Errorf("ticket %d visited %d ranks, want %d", t.ID, len(t.Hops), size-1)
			}
			fmt.Printf("ticket %d: hops=%v load=%.2f\n", t.ID, t.Hops, t.Payload["load"])
		}
		return nil
	}

	in := make([]Ticket, 2)
	st, err := world.Recv(in, 0, len(in), mpi.OBJECT, prev, 1)
	if err != nil {
		return err
	}
	out := in[:st.GetCount(mpi.OBJECT)]
	for i := range out {
		out[i].Hops = append(out[i].Hops, fmt.Sprintf("rank%d", rank))
		out[i].Payload["load"] *= 2
	}
	return world.Send(out, 0, len(out), mpi.OBJECT, next, 1)
}
