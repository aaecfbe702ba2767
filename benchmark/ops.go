package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"time"

	"gompi/mpi"
	"gompi/mpi/typed"
)

const (
	tagPing  = 5
	tagMatch = 100 // first of 2*matchDepth tags
)

// p2pOp is the round trip of p2p.* and of the ladder's mpi and typed
// rungs: rank 0 sends `size` bytes and receives them back, rank 1 echoes
// what it received.
type p2pOp struct {
	world      *mpi.Intracomm
	rank       int
	send, recv []byte
	stamp      uint64
	typed      bool
	corrupt    bool
	opID       int64
}

func newP2POp(env *mpi.Env, size int, cfg runCfg) *p2pOp {
	o := &p2pOp{
		world: env.CommWorld(), rank: env.Rank(),
		send: make([]byte, size), recv: make([]byte, size),
		typed: cfg.typed, corrupt: cfg.corrupt,
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Read(o.send)
	o.stamp = binary.LittleEndian.Uint64(o.send)
	return o
}

// prepare makes each batch's message differ from the last one's, so a
// stale receive buffer cannot pass check.
func (o *p2pOp) prepare(b int) {
	if o.rank == 0 {
		binary.LittleEndian.PutUint64(o.send, o.stamp^uint64(b))
		o.recv[0] = ^o.send[0]
	}
}

func (o *p2pOp) sendTo(buf []byte, peer int) error {
	if o.typed {
		return typed.Send(o.world, buf, peer, tagPing)
	}
	return o.world.Send(buf, 0, len(buf), mpi.BYTE, peer, tagPing)
}

func (o *p2pOp) recvFrom(peer int) error {
	var err error
	if o.typed {
		_, err = typed.Recv(o.world, o.recv, peer, tagPing)
	} else {
		_, err = o.world.Recv(o.recv, 0, len(o.recv), mpi.BYTE, peer, tagPing)
	}
	return err
}

func (o *p2pOp) run(n int, sp *spanLog) error {
	if o.rank == 1 {
		for i := 0; i < n; i++ {
			if err := o.recvFrom(0); err != nil {
				return err
			}
			if o.corrupt && i == n-1 {
				o.recv[len(o.recv)-1] ^= 0xff
			}
			if err := o.sendTo(o.recv, 0); err != nil {
				return err
			}
		}
		return nil
	}
	if sp == nil {
		for i := 0; i < n; i++ {
			if err := o.sendTo(o.send, 1); err != nil {
				return err
			}
			if err := o.recvFrom(1); err != nil {
				return err
			}
		}
		return nil
	}
	kOp, kSend, kRecv := sp.kind("op"), sp.kind("mpi.Send"), sp.kind("mpi.Recv")
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := o.sendTo(o.send, 1); err != nil {
			return err
		}
		t1 := time.Now()
		if err := o.recvFrom(1); err != nil {
			return err
		}
		t2 := time.Now()
		o.opID++
		p := sp.add(kOp, -1, o.opID, t0, t2)
		sp.add(kSend, p, o.opID, t0, t1)
		sp.add(kRecv, p, o.opID, t1, t2)
	}
	return nil
}

// check compares the echo of the batch's last op with what was sent.
func (o *p2pOp) check() int {
	if o.rank == 0 && !bytes.Equal(o.send, o.recv) {
		return 1
	}
	return 0
}

// matchOp is one window of match.depth256. First half: rank 0 pre-posts
// matchDepth receives with distinct tags, and only then does rank 1 send
// to them in a seed-permuted tag order, so every arrival scans a deep
// posted queue. Second half: rank 1 sends matchDepth messages first,
// rank 0 waits until all sit in its unexpected queue and posts the
// receives in permuted order, so every post scans a deep unexpected
// queue. The hand-over between the halves goes over a Go channel and a
// pvar poll instead of an MPI barrier, whose own messages would land in
// either queue depending on timing and spoil the exact counts.
type matchOp struct {
	env    *mpi.Env
	world  *mpi.Intracomm
	rank   int
	perm   []int
	vals   []int64 // vals[i] travels under tag i
	got    []int64
	reqs   []*mpi.Request
	posted chan struct{} // rank 0 → rank 1: the window's receives are posted
	opID   int64
}

func newMatchOp(env *mpi.Env, cfg runCfg, posted chan struct{}) *matchOp {
	o := &matchOp{
		env: env, world: env.CommWorld(), rank: env.Rank(),
		vals: make([]int64, 2*matchDepth), got: make([]int64, 2*matchDepth),
		reqs: make([]*mpi.Request, matchDepth), posted: posted,
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	o.perm = evenPerm(rng, matchDepth)
	for i := range o.vals {
		o.vals[i] = rng.Int63()
	}
	return o
}

// evenPerm draws a seed-dependent permutation whose inversion count is
// within 0.25 % of a random permutation's mean, n(n-1)/4. A queue scan
// for element perm[k] walks past every still-queued element that sorts
// before it, so both halves of a window do n + inversions scan steps; a
// random permutation's count has a standard deviation of 4 % of its
// mean at n = 256, which would make the seeds unequal work.
func evenPerm(rng *rand.Rand, n int) []int {
	mean := n * (n - 1) / 4
	for {
		perm := rng.Perm(n)
		inv := 0
		for i := range perm {
			for _, later := range perm[i+1:] {
				if later < perm[i] {
					inv++
				}
			}
		}
		if d := inv - mean; d*400 <= mean && -d*400 <= mean {
			return perm
		}
	}
}

func (o *matchOp) prepare(int) { clear(o.got) }

func (o *matchOp) run(n int, sp *spanLog) error {
	if o.rank == 1 {
		for w := 0; w < n; w++ {
			<-o.posted
			for _, i := range o.perm {
				if err := o.world.Send(o.vals, i, 1, mpi.LONG, 0, tagMatch+i); err != nil {
					return err
				}
			}
			for i := matchDepth; i < 2*matchDepth; i++ {
				if err := o.world.Send(o.vals, i, 1, mpi.LONG, 0, tagMatch+i); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var kinds [6]int
	if sp != nil {
		for i, name := range []string{"op", "mpi.Irecv.posted", "mpi.WaitAll.posted",
			"wait.unexpected", "mpi.Irecv.unexpected", "mpi.WaitAll.unexpected"} {
			kinds[i] = sp.kind(name)
		}
	}
	var ts [6]time.Time
	for w := 0; w < n; w++ {
		ts[0] = time.Now()
		for i := 0; i < matchDepth; i++ {
			if err := o.post(i, i); err != nil {
				return err
			}
		}
		ts[1] = time.Now()
		o.posted <- struct{}{}
		if _, err := mpi.WaitAll(o.reqs); err != nil {
			return err
		}
		ts[2] = time.Now()
		for {
			if d, _ := o.env.PerfVar("core.unexpected_depth"); d >= matchDepth {
				break
			}
			runtime.Gosched()
		}
		ts[3] = time.Now()
		for slot, i := range o.perm {
			if err := o.post(slot, matchDepth+i); err != nil {
				return err
			}
		}
		ts[4] = time.Now()
		if _, err := mpi.WaitAll(o.reqs); err != nil {
			return err
		}
		ts[5] = time.Now()
		if sp != nil {
			o.opID++
			p := sp.add(kinds[0], -1, o.opID, ts[0], ts[5])
			for k := 1; k < 6; k++ {
				sp.add(kinds[k], p, o.opID, ts[k-1], ts[k])
			}
		}
	}
	return nil
}

func (o *matchOp) post(slot, i int) error {
	r, err := o.world.Irecv(o.got, i, 1, mpi.LONG, 1, tagMatch+i)
	o.reqs[slot] = r
	return err
}

// check verifies that every receive of the batch's last window carries
// the payload of its own tag.
func (o *matchOp) check() int {
	if o.rank != 0 {
		return 0
	}
	bad := 0
	for i := range o.vals {
		if o.got[i] != o.vals[i] {
			bad++
		}
	}
	return bad
}

// allreduceOp is one blocking Allreduce of count DOUBLEs with SUM. The
// fill is rank-dependent and integer-valued, so the sum is exact in any
// order and has a closed form.
type allreduceOp struct {
	world      *mpi.Intracomm
	send, recv []float64
	want       []float64
	opID       int64
}

func newAllreduceOp(env *mpi.Env, count int, cfg runCfg) *allreduceOp {
	o := &allreduceOp{
		world: env.CommWorld(),
		send:  make([]float64, count), recv: make([]float64, count), want: make([]float64, count),
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	np := env.Size()
	for i := range o.send {
		base := float64(1 + rng.Intn(1000))
		o.send[i] = float64(env.Rank()+1) * base
		o.want[i] = float64(np*(np+1)/2) * base
	}
	return o
}

func (o *allreduceOp) prepare(int) { clear(o.recv) }

func (o *allreduceOp) run(n int, sp *spanLog) error {
	var kOp, kCall int
	if sp != nil {
		kOp, kCall = sp.kind("op"), sp.kind("mpi.Allreduce")
	}
	for i := 0; i < n; i++ {
		t0 := time.Time{}
		if sp != nil {
			t0 = time.Now()
		}
		if err := o.world.Allreduce(o.send, 0, o.recv, 0, len(o.send), mpi.DOUBLE, mpi.SUM); err != nil {
			return err
		}
		if sp != nil {
			t1 := time.Now()
			o.opID++
			p := sp.add(kOp, -1, o.opID, t0, t1)
			sp.add(kCall, p, o.opID, t0, t1)
		}
	}
	return nil
}

func (o *allreduceOp) check() int {
	for i := range o.want {
		if o.recv[i] != o.want[i] {
			return 1
		}
	}
	return 0
}
