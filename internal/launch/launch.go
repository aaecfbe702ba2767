// Package launch implements the process start-up plumbing of DM mode:
// the rendezvous between mpirun (the coordinator) and the worker
// processes, after which the workers build the full TCP mesh. It plays
// the role of p4's procgroup start-up under WMPI/MPICH in the paper.
package launch

import (
	"encoding/gob"
	"fmt"
	"net"
	"time"
)

// Environment variables carrying the job geometry from mpirun to the
// worker processes.
const (
	EnvRank  = "GOMPI_RANK"
	EnvSize  = "GOMPI_SIZE"
	EnvCoord = "GOMPI_COORD"
	EnvEager = "GOMPI_EAGER"
)

// hello is the worker's registration message.
type hello struct {
	Rank int
	Addr string
}

// table is the coordinator's reply: every rank's listener address.
type table struct {
	Addrs []string
}

// Coordinate runs the coordinator side of the rendezvous on ln: it
// collects n worker registrations, then sends every worker the full
// address table. It returns when all workers are released.
func Coordinate(ln net.Listener, n int) error {
	conns := make([]net.Conn, n)
	addrs := make([]string, n)
	seen := 0
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for seen < n {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("launch: accept: %w", err)
		}
		var h hello
		if err := gob.NewDecoder(c).Decode(&h); err != nil {
			c.Close()
			return fmt.Errorf("launch: registration decode: %w", err)
		}
		if h.Rank < 0 || h.Rank >= n || conns[h.Rank] != nil {
			c.Close()
			return fmt.Errorf("launch: bad or duplicate rank %d", h.Rank)
		}
		conns[h.Rank] = c
		addrs[h.Rank] = h.Addr
		seen++
	}
	for r, c := range conns {
		if err := gob.NewEncoder(c).Encode(table{Addrs: addrs}); err != nil {
			return fmt.Errorf("launch: releasing rank %d: %w", r, err)
		}
	}
	return nil
}

// rendezvous registers this rank's mesh listener address with the
// coordinator and returns the full address table.
func rendezvous(coordAddr string, rank, size int, addr string) ([]string, error) {
	conn, err := net.DialTimeout("tcp", coordAddr, 30*time.Second)
	if err != nil {
		return nil, fmt.Errorf("launch: dialing coordinator %s: %w", coordAddr, err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(hello{Rank: rank, Addr: addr}); err != nil {
		return nil, fmt.Errorf("launch: registering: %w", err)
	}
	var t table
	if err := gob.NewDecoder(conn).Decode(&t); err != nil {
		return nil, fmt.Errorf("launch: waiting for address table: %w", err)
	}
	if len(t.Addrs) != size {
		return nil, fmt.Errorf("launch: coordinator sent %d addresses for size %d", len(t.Addrs), size)
	}
	return t.Addrs, nil
}
