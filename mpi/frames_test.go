package mpi_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gompi/internal/transport"
	"gompi/mpi"
)

// TestEveryCollectiveReturnsItsFrames: every pooled frame a blocking
// collective draws goes back to the frame pool — over calls of each
// collective, the pool's gets equal its puts plus its drops, the audit
// abandonJob makes of an abandoned job. A frame a reader keeps and drops
// to the garbage collector shows as a get with no put. Over sealed chan,
// islands and tcp, at np 2–5, from every root, with blocks on both
// sides of the eager limit. The pool is the process's, so the ranks
// meet at a gate between collectives, where no message is in flight,
// and the last to arrive audits the calls since the previous gate.
func TestEveryCollectiveReturnsItsFrames(t *testing.T) {
	for _, m := range reuseMedia {
		for np := 2; np <= 5; np++ {
			opt := m.opt
			opt.NP, opt.EagerLimit = np, reuseEager
			t.Run(fmt.Sprintf("%s/np%d", m.name, np), func(t *testing.T) {
				g := newPoolGate(np)
				done := make(chan error, 1)
				go func() { done <- mpi.RunWith(opt, func(env *mpi.Env) error { return framesJob(env, g) }) }()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(60 * time.Second):
					t.Fatal("the job did not return within 60s")
				}
				if len(g.kept) > 0 {
					var rows []string
					for name, n := range g.kept {
						rows = append(rows, fmt.Sprintf("%s %d", name, n))
					}
					sort.Strings(rows)
					t.Errorf("frames drawn from the pool and never returned, per collective: %s", strings.Join(rows, ", "))
				}
			})
		}
	}
}

// poolGate is where a job's ranks meet between collectives. The last
// rank to arrive audits the frame pool: it waits until every frame
// drawn since the last gate is back, or until the counts have stood
// still for a while, and then charges what is missing to the calls
// made since.
type poolGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	np, in int
	round  int
	at     transport.PoolSnapshot
	kept   map[string]int64
}

// gateStill is how long the pool's counts must stand still before the
// audit charges what is missing.
const gateStill = time.Second

func newPoolGate(np int) *poolGate {
	g := &poolGate{np: np, at: transport.PoolStats(), kept: map[string]int64{}}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// pass is one rank's arrival at the gate after the calls named what.
func (g *poolGate) pass(what string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.in++; g.in < g.np {
		for round := g.round; round == g.round; {
			g.cond.Wait()
		}
		return
	}
	missing := func(s transport.PoolSnapshot) int64 {
		return int64(s.Gets-g.at.Gets) - int64(s.Puts-g.at.Puts) - int64(s.Drops-g.at.Drops)
	}
	now := transport.PoolStats()
	for still := time.Now(); missing(now) != 0 && time.Since(still) < gateStill; {
		time.Sleep(time.Millisecond)
		if next := transport.PoolStats(); next != now {
			now, still = next, time.Now()
		}
	}
	if n := missing(now); n != 0 && what != "" {
		g.kept[what] += n
	}
	g.at, g.in = now, 0
	g.round++
	g.cond.Broadcast()
}

func framesJob(env *mpi.Env, g *poolGate) error {
	w := env.CommWorld()
	np := w.Size()
	size := np * (reuseCounts[len(reuseCounts)-1] + 1)
	send, recv := make([]float64, size), make([]float64, size)
	d := mpi.DOUBLE
	g.pass("") // whatever the job's start left in flight
	const calls = 5
	for _, n := range reuseCounts {
		counts, displs := make([]int, np), make([]int, np)
		for r := range counts {
			counts[r], displs[r] = n, r*(n+1)
		}
		type coll struct {
			name string
			call func(root int) error
		}
		for _, c := range []coll{
			{"Barrier", func(int) error { return w.Barrier() }},
			{"Bcast", func(root int) error { return w.Bcast(send, 0, n, d, root) }},
			{"Gather", func(root int) error { return w.Gather(send, 0, n, d, recv, 0, n, d, root) }},
			{"Gatherv", func(root int) error { return w.Gatherv(send, 0, n, d, recv, 0, counts, displs, d, root) }},
			{"Scatter", func(root int) error { return w.Scatter(send, 0, n, d, recv, 0, n, d, root) }},
			{"Scatterv", func(root int) error { return w.Scatterv(send, 0, counts, displs, d, recv, 0, n, d, root) }},
			{"Allgather", func(int) error { return w.Allgather(send, 0, n, d, recv, 0, n, d) }},
			{"Allgatherv", func(int) error { return w.Allgatherv(send, 0, n, d, recv, 0, counts, displs, d) }},
			{"Alltoall", func(int) error { return w.Alltoall(send, 0, n, d, recv, 0, n, d) }},
			{"Alltoallv", func(int) error { return w.Alltoallv(send, 0, counts, displs, d, recv, 0, counts, displs, d) }},
			{"Reduce", func(root int) error { return w.Reduce(send, 0, recv, 0, n, d, mpi.SUM, root) }},
			{"Allreduce", func(int) error { return w.Allreduce(send, 0, recv, 0, n, d, mpi.SUM) }},
			{"ReduceScatter", func(int) error { return w.ReduceScatter(send, 0, recv, 0, counts, d, mpi.SUM) }},
			{"Scan", func(int) error { return w.Scan(send, 0, recv, 0, n, d, mpi.SUM) }},
			{"Exscan", func(int) error { return w.Exscan(send, 0, recv, 0, n, d, mpi.SUM) }},
		} {
			for root := 0; root < np; root++ {
				for i := 0; i < calls; i++ {
					if err := c.call(root); err != nil {
						return fmt.Errorf("%s of %d doubles from root %d: %w", c.name, n, root, err)
					}
				}
			}
			g.pass(fmt.Sprintf("%s/%d", c.name, n))
		}
	}
	return nil
}
