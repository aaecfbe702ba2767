package mpi

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/core"
	"gompi/internal/transport"
)

// NoIsland is a RunOptions.WrapDevice for a chan job without islands:
// each endpoint is claimed and its job sealed (transport.Job.Direct)
// before the engines claim theirs, so the job is not direct, every
// member is still reached by reference, and the message schedules run —
// with the switch to halving + doubling at eight eager limits, as for
// any job that is not one undecorated in-process job (coll's halves). An
// endpoint of no job passes through.
func NoIsland(_ int, d transport.Device) transport.Device {
	if m, ok := d.(*transport.Mux); ok {
		if j := m.Claim(); j != nil {
			j.Direct()
		}
	}
	return d
}

// islandFolds sums a job's coll.island_folds: one per fold, counted by
// the member that ran it.
type islandFolds struct{ atomic.Uint64 }

func (f *islandFolds) add(env *Env) { f.Add(perfVars(env)["coll.island_folds"]) }

// withinDeadline is RunWith that fails the test, rather than hang it,
// when the job has not returned by the deadline: members that picked
// different schedules may wait for each other forever.
func withinDeadline(t *testing.T, d time.Duration, opt RunOptions, fn func(*Env) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- RunWith(opt, fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("the job did not return within %v", d)
		return nil
	}
}

// TestAllreduceScheduleAgreesAcrossDecoration: a decorated rank's
// engine reaches nobody by reference, while its peers reach it by
// reference; every member must still pick the same allreduce schedule,
// on both sides of the halving switch and between it and eight eager
// limits, where reaching everyone by reference used to decide — and none
// of them may take the island, which needs every engine undecorated.
func TestAllreduceScheduleAgreesAcrossDecoration(t *testing.T) {
	for _, np := range []int{2, 3} {
		for _, size := range []int{8 << 10, 128 << 10, 512 << 10} {
			t.Run(fmt.Sprintf("np%d/%dB", np, size), func(t *testing.T) {
				var folds islandFolds
				count := size / 8
				err := withinDeadline(t, 30*time.Second, RunOptions{NP: np, WrapDevice: func(rank int, d transport.Device) transport.Device {
					if rank == 1 {
						return decorated{d}
					}
					return d
				}}, func(env *Env) error {
					w := env.CommWorld()
					send, recv := make([]float64, count), make([]float64, count)
					for i := range send {
						send[i] = float64(w.Rank()*count + i)
					}
					for round := 0; round < 2; round++ {
						if err := w.Allreduce(send, 0, recv, 0, count, DOUBLE, SUM); err != nil {
							return err
						}
						for i, got := range recv {
							if want := float64(count*np*(np-1)/2 + np*i); got != want {
								return fmt.Errorf("rank %d element %d: %v, want %v", w.Rank(), i, got, want)
							}
						}
					}
					folds.add(env)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if folds.Load() != 0 {
					t.Fatalf("a job with a decorated rank folded %d times through an island", folds.Load())
				}
			})
		}
	}
}

// TestAllreduceBitExactAcrossPaths: the island fold (chan, at every
// size) associates exactly as recursive doubling and halving + doubling
// (tcp) do: the same seeded operands give the same result bits at every
// size, operation and class, on every member.
func TestAllreduceBitExactAcrossPaths(t *testing.T) {
	type combo struct {
		d    *Datatype
		op   *Op
		make func(rng *rand.Rand, n int) any // n items
	}
	floats := func(rng *rand.Rand, n int) any {
		b := make([]float64, n)
		for i := range b {
			b[i] = (rng.Float64() - 0.5) * math.Pow(2, float64(rng.Intn(40)-20))
		}
		return b
	}
	floats32 := func(rng *rand.Rand, n int) any {
		b := make([]float32, n)
		for i := range b {
			b[i] = float32((rng.Float64() - 0.5) * math.Pow(2, float64(rng.Intn(20)-10)))
		}
		return b
	}
	near1 := func(rng *rand.Rand, n int) any { // products neither overflow nor vanish
		b := make([]float64, n)
		for i := range b {
			b[i] = 0.75 + rng.Float64()/2
		}
		return b
	}
	near1f := func(rng *rand.Rand, n int) any {
		b := make([]float32, n)
		for i := range b {
			b[i] = float32(0.75 + rng.Float64()/2)
		}
		return b
	}
	longs := func(rng *rand.Rand, n int) any {
		b := make([]int64, n)
		for i := range b {
			b[i] = rng.Int63() - math.MaxInt64/2
		}
		return b
	}
	ints := func(rng *rand.Rand, n int) any {
		b := make([]int32, n)
		for i := range b {
			b[i] = rng.Int31() - math.MaxInt32/2
		}
		return b
	}
	pairs := func(rng *rand.Rand, n int) any {
		b := make([]float64, 2*n)
		for i := 0; i < n; i++ {
			b[2*i], b[2*i+1] = float64(rng.Intn(8)), float64(rng.Intn(64))
		}
		return b
	}
	combos := []combo{
		{DOUBLE, SUM, floats}, {DOUBLE, PROD, near1}, {DOUBLE, MAX, floats}, {DOUBLE, MIN, floats},
		{FLOAT, SUM, floats32}, {FLOAT, PROD, near1f}, {FLOAT, MAX, floats32}, {FLOAT, MIN, floats32},
		{LONG, SUM, longs}, {LONG, BAND, longs}, {INT, SUM, ints}, {INT, BAND, ints},
		{DOUBLE2, MAXLOC, pairs},
	}
	run := func(device string, np int) (map[string][]byte, uint64) {
		var folds islandFolds
		var mu sync.Mutex
		out := map[string][]byte{}
		err := RunWith(RunOptions{NP: np, Device: device}, func(env *Env) error {
			w := env.CommWorld()
			for ci, c := range combos {
				item := c.d.t.WireBytes(1)
				for _, n := range []int{1, 7, 1023, core.DefaultEagerLimit/item - 1, core.DefaultEagerLimit/item + 1} {
					rng := rand.New(rand.NewSource(int64(1000*ci + 7*n + w.Rank())))
					send := c.make(rng, n)
					recv := c.make(rng, n)
					if err := w.Allreduce(send, 0, recv, 0, n, c.d, c.op); err != nil {
						return fmt.Errorf("%s %s × %d: %v", c.d.Name(), c.op.op.Name, n, err)
					}
					key := fmt.Sprintf("%s %s × %d", c.d.Name(), c.op.op.Name, n)
					got := fmt.Sprint(recv)
					mu.Lock()
					if first, ok := out[key]; ok && string(first) != got {
						mu.Unlock()
						return fmt.Errorf("%s: rank %d disagrees with another member", key, w.Rank())
					}
					out[key] = []byte(got)
					mu.Unlock()
				}
			}
			folds.add(env)
			return nil
		})
		if err != nil {
			t.Fatalf("%s np%d: %v", device, np, err)
		}
		return out, folds.Load()
	}
	for np := 2; np <= 9; np++ {
		island, folds := run("chan", np)
		messages, none := run("tcp", np)
		// Every count of every combination folds through the island.
		if want := uint64(5 * len(combos)); folds != want || none != 0 {
			t.Fatalf("np%d: %d island folds over chan, want %d; %d over tcp, want 0", np, folds, want, none)
		}
		for key, bits := range island {
			if string(messages[key]) != string(bits) {
				t.Fatalf("np%d %s: the island's result differs from recursive doubling's", np, key)
			}
		}
	}
}

// TestIslandForms: every form of a small allreduce folds through the
// island and sends no message — blocking, many nonblocking calls started
// before any wait, a persistent one whose members start its activations
// out of step, and one whose send and receive buffer are the same.
func TestIslandForms(t *testing.T) {
	const np, rounds, inflight = 4, 1000, 64
	var folds islandFolds
	err := Run(np, func(env *Env) error {
		w := env.CommWorld()
		r := float64(w.Rank())
		sum := func(x float64) float64 { return np*x + np*(np-1)/2 } // Σ (x + rank)
		before := perfVars(env)
		// Blocking.
		send, recv := []float64{0}, []float64{0}
		for i := 0; i < rounds; i++ {
			send[0] = float64(i) + r
			if err := w.Allreduce(send, 0, recv, 0, 1, DOUBLE, SUM); err != nil {
				return err
			}
			if recv[0] != sum(float64(i)) {
				return fmt.Errorf("blocking round %d: %v", i, recv[0])
			}
		}
		// Nonblocking, all started before any wait, waited in reverse.
		sends, recvs := make([][]float64, inflight), make([][]float64, inflight)
		reqs := make([]*Request, inflight)
		for i := range reqs {
			sends[i], recvs[i] = []float64{float64(i) + r, 1}, []float64{0, 0}
			var err error
			if reqs[i], err = w.Iallreduce(sends[i], 0, recvs[i], 0, 2, DOUBLE, SUM); err != nil {
				return err
			}
		}
		for i := inflight - 1; i >= 0; i-- {
			if _, err := reqs[i].Wait(); err != nil {
				return err
			}
			if recvs[i][0] != sum(float64(i)) || recvs[i][1] != np {
				return fmt.Errorf("nonblocking call %d: %v", i, recvs[i])
			}
		}
		// Persistent, members skewed: each sleeps now and then, at
		// different activations.
		p, err := w.AllreduceInit(send, 0, recv, 0, 1, DOUBLE, SUM)
		if err != nil {
			return err
		}
		for i := 0; i < rounds; i++ {
			send[0] = float64(i) + r
			if (i+w.Rank())%97 == 0 {
				time.Sleep(time.Millisecond)
			}
			if err := p.Start(); err != nil {
				return err
			}
			if _, err := p.Wait(); err != nil {
				return err
			}
			if recv[0] != sum(float64(i)) {
				return fmt.Errorf("persistent activation %d: %v", i, recv[0])
			}
		}
		if err := p.Free(); err != nil {
			return err
		}
		// One buffer for both.
		buf := []float64{r, 2 * r}
		if err := w.Allreduce(buf, 0, buf, 0, 2, DOUBLE, SUM); err != nil {
			return err
		}
		if buf[0] != np*(np-1)/2 || buf[1] != np*(np-1) {
			return fmt.Errorf("send == recv: %v", buf)
		}
		after := perfVars(env)
		if sent := after["core.sends_eager"] - before["core.sends_eager"]; sent != 0 {
			return fmt.Errorf("rank %d sent %d messages", w.Rank(), sent)
		}
		folds.add(env)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(2*rounds + inflight + 1); folds.Load() != want {
		t.Fatalf("%d island folds, want %d", folds.Load(), want)
	}
}

// TestIslandCancelStrandsNobody: a member that cancels its call before
// the fold returns the context's error promptly and leaves a copy of its
// contribution behind, so the member that may have arrived before it and
// the ones that arrive only after it returned all complete, promptly,
// with the whole sum; nobody touches the cancelled member's buffers once
// its wait returned — at 256 KiB its copy is a source of the tree steps
// and its accumulator none of their destinations — and the next
// allreduce is an ordinary one.
func TestIslandCancelStrandsNobody(t *testing.T) {
	for _, row := range []struct{ np, count int }{{4, 1}, {4, 32 << 10}, {5, 32 << 10}} {
		t.Run(fmt.Sprintf("np%d/%dB", row.np, 8*row.count), func(t *testing.T) { cancelStrandsNobody(t, row.np, row.count) })
	}
}

func cancelStrandsNobody(t *testing.T, np, count int) {
	want := float64(np * (np + 1) / 2)
	cancelled := make(chan struct{}) // rank 1's wait has returned
	err := Run(np, func(env *Env) error {
		w := env.CommWorld()
		send, recv := make([]float64, count), make([]float64, count)
		fill := func(b []float64, v float64) {
			for i := range b {
				b[i] = v
			}
		}
		check := func(what string) error {
			for i, v := range recv {
				if v != want {
					return fmt.Errorf("rank %d, %s: element %d = %v, want %v", w.Rank(), what, i, v, want)
				}
			}
			return nil
		}
		fill(send, float64(w.Rank()+1))
		switch w.Rank() {
		case 0, 1:
			req, err := w.Iallreduce(send, 0, recv, 0, count, DOUBLE, SUM)
			if err != nil {
				return err
			}
			if w.Rank() == 0 {
				if _, err := req.Wait(); err != nil {
					return err
				}
				if err := check("the first allreduce"); err != nil {
					return err
				}
				break
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err = req.WaitCtx(ctx)
			close(cancelled)
			if !errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("cancelled member: %v, want the deadline", err)
			}
			if waited := time.Since(start); waited > 2*time.Second {
				return fmt.Errorf("cancelled member returned after %v", waited)
			}
			fill(send, 100) // its own again: the race detector watches
			fill(recv, 100)
			if n := perfVars(env)["coll.island_abandoned"]; n != 1 {
				return fmt.Errorf("coll.island_abandoned = %d, want 1", n)
			}
		default:
			<-cancelled
			start := time.Now()
			if err := w.Allreduce(send, 0, recv, 0, count, DOUBLE, SUM); err != nil {
				return err
			}
			if waited := time.Since(start); waited > 2*time.Second {
				return fmt.Errorf("late member returned after %v", waited)
			}
			if err := check("the first allreduce"); err != nil {
				return err
			}
		}
		// Every member's first call is over: the fold wrote no byte of
		// the cancelled member's accumulator.
		if err := w.Barrier(); err != nil {
			return err
		}
		if w.Rank() == 1 {
			for i, v := range recv {
				if v != 100 {
					return fmt.Errorf("the cancelled member's element %d = %v after the fold", i, v)
				}
			}
			fill(send, 2)
		}
		if err := w.Allreduce(send, 0, recv, 0, count, DOUBLE, SUM); err != nil {
			return err
		}
		return check("the next allreduce")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIslandRevokeReachesParkedMembers: members parked in an island
// allreduce return MPI_ERR_REVOKED soon after one member, which never
// makes the call, revokes the communicator.
func TestIslandRevokeReachesParkedMembers(t *testing.T) {
	const np = 4
	err := Run(np, func(env *Env) error {
		w := env.CommWorld()
		dup, err := w.Dup()
		if err != nil {
			return err
		}
		if w.Rank() == np-1 {
			time.Sleep(50 * time.Millisecond)
			return dup.Revoke()
		}
		send, recv := []float64{1}, []float64{0}
		start := time.Now()
		err = dup.Allreduce(send, 0, recv, 0, 1, DOUBLE, SUM)
		if ClassOf(err) != ErrRevoked {
			return fmt.Errorf("rank %d: %v, want MPI_ERR_REVOKED", w.Rank(), err)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			return fmt.Errorf("rank %d returned after %v", w.Rank(), waited)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIslandLifetime: islands are shared per communicator and gone once
// every member has freed it, and so are the engine's tables of its group
// — a long run of Dup, Allreduce, Free keeps the job's island count, the
// engine's group table (core.groups) and the heap flat.
func TestIslandLifetime(t *testing.T) {
	rounds := 100_000
	if raceEnabled {
		rounds = 10_000
	}
	const np = 2
	var heap [2]uint64
	var groups [2][np]int64
	err := Run(np, func(env *Env) error {
		w := env.CommWorld()
		job := env.proc.Job()
		if job == nil {
			return fmt.Errorf("a chan job has no island")
		}
		send, recv := []float64{1}, []float64{0}
		cycles := func(n int) error {
			for i := 0; i < n; i++ {
				d, err := w.Dup()
				if err != nil {
					return err
				}
				if err := d.Allreduce(send, 0, recv, 0, 1, DOUBLE, SUM); err != nil {
					return err
				}
				if err := d.Free(); err != nil {
					return err
				}
			}
			return nil
		}
		measure := func(at int) error {
			if err := w.Barrier(); err != nil {
				return err
			}
			groups[at][w.Rank()], _ = env.PerfVar("core.groups")
			if w.Rank() == 0 {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				heap[at] = ms.HeapInuse
				// COMM_WORLD's island (the Dups' context agreement) is the one left.
				if n := job.Shared(); n != 1 {
					return fmt.Errorf("%d islands shared, want 1", n)
				}
			}
			return w.Barrier()
		}
		if err := cycles(100); err != nil {
			return err
		}
		if err := measure(0); err != nil {
			return err
		}
		if err := cycles(rounds); err != nil {
			return err
		}
		return measure(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if groups[0] != groups[1] || groups[0][0] == 0 {
		t.Fatalf("core.groups went from %v to %v over %d cycles of Dup, Allreduce, Free", groups[0], groups[1], rounds)
	}
	if grew := int64(heap[1]) - int64(heap[0]); grew > 1<<20 {
		t.Fatalf("heap in use grew by %d bytes over %d cycles of Dup, Allreduce, Free", grew, rounds)
	}
	t.Logf("heap in use: %d → %d bytes over %d cycles", heap[0], heap[1], rounds)
}

// islandChunk mirrors internal/coll's islandChunk: the span of one chunk
// of an island fold, cut down to a whole number of the operand's units.
const islandChunk = 16 << 10

// fingerprint hashes the bits of a result: a slice of one of the
// fixed-size classes' element types.
func fingerprint(v any) uint64 {
	h := fnv.New64a()
	if err := binary.Write(h, binary.LittleEndian, v); err != nil {
		panic(err)
	}
	return h.Sum64()
}

// TestIslandChunkedFoldBitExact: the chunked island fold (chan) gives
// the message schedules' result bits (tcp: recursive doubling, or
// halving + doubling from eight eager limits), on every member, at np
// 2–9 and at operands of one unit short of a chunk, one chunk, one unit
// over it, a chunk and a last one of three blocks and a tail, just over
// the eager limit and 1 MiB — for every family of block loops, which
// the island folds a chunk's whole blocks with (DOUBLE MAX with NaN and
// ±0 on either side), for MAXLOC, which has none, and for three
// DOUBLEs, whose 24 bytes do not divide the chunk, so chunk edges fall
// on whole units short of islandChunk and every chunk ends in a tail.
func TestIslandChunkedFoldBitExact(t *testing.T) {
	triple, err := TypeContiguous(3, DOUBLE)
	if err != nil {
		t.Fatal(err)
	}
	triple.Commit()
	type combo struct {
		d    *Datatype
		op   *Op
		make func(rng *rand.Rand, n int) any // n elements
	}
	wide := func(rng *rand.Rand, n int) any {
		b := make([]float64, n)
		for i := range b {
			b[i] = (rng.Float64() - 0.5) * math.Pow(2, float64(rng.Intn(40)-20))
		}
		return b
	}
	wide32 := func(rng *rand.Rand, n int) any {
		b := make([]float32, n)
		for i := range b {
			b[i] = float32((rng.Float64() - 0.5) * math.Pow(2, float64(rng.Intn(20)-10)))
		}
		return b
	}
	near1 := func(rng *rand.Rand, n int) any {
		b := make([]float64, n)
		for i := range b {
			b[i] = 0.75 + rng.Float64()/2
		}
		return b
	}
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, -1}
	nanZero := func(rng *rand.Rand, n int) any { // NaN and ±0 on either side of MAX
		b := make([]float64, n)
		for i := range b {
			b[i] = specials[rng.Intn(len(specials))]
		}
		return b
	}
	pairs := func(rng *rand.Rand, n int) any {
		b := make([]float64, n)
		for i := 0; i < n; i += 2 {
			b[i], b[i+1] = float64(rng.Intn(8)), float64(rng.Intn(64))
		}
		return b
	}
	longs := func(rng *rand.Rand, n int) any { // sums wrap
		b := make([]int64, n)
		for i := range b {
			b[i] = int64(rng.Uint64())
		}
		return b
	}
	ints := func(rng *rand.Rand, n int) any {
		b := make([]int32, n)
		for i := range b {
			b[i] = int32(rng.Uint32())
		}
		return b
	}
	shorts := func(rng *rand.Rand, n int) any {
		b := make([]int16, n)
		for i := range b {
			b[i] = int16(rng.Uint32())
		}
		return b
	}
	octets := func(rng *rand.Rand, n int) any {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint32()) | 0x81 // BAND keeps a bit or two
		}
		return b
	}
	combos := []combo{
		{DOUBLE, SUM, wide}, {DOUBLE, PROD, near1}, {DOUBLE, MAX, nanZero}, {FLOAT, SUM, wide32},
		{LONG, SUM, longs}, {INT, BXOR, ints}, {SHORT, SUM, shorts}, {BYTE, BAND, octets},
		{DOUBLE2, MAXLOC, pairs}, {triple, SUM, wide},
	}
	run := func(device string, np int) (map[string]uint64, uint64) {
		var folds islandFolds
		var mu sync.Mutex
		out := map[string]uint64{}
		var differ error // members that disagree go on calling: none is left waiting
		err := withinDeadline(t, 60*time.Second, RunOptions{NP: np, Device: device}, func(env *Env) error {
			w := env.CommWorld()
			for ci, c := range combos {
				unit := c.d.t.WireBytes(1)
				for _, n := range []int{islandChunk/unit - 1, islandChunk / unit, islandChunk/unit + 1, (islandChunk + 200) / unit, (64<<10 + 8) / unit, (1 << 20) / unit} {
					rng := rand.New(rand.NewSource(int64(1000*ci + 7*n + w.Rank())))
					send, recv := c.make(rng, n*c.d.Size()), c.make(rng, n*c.d.Size())
					if err := w.Allreduce(send, 0, recv, 0, n, c.d, c.op); err != nil {
						return fmt.Errorf("%s %s × %d: %v", c.d.Name(), c.op.op.Name, n, err)
					}
					key := fmt.Sprintf("%s %s × %d", c.d.Name(), c.op.op.Name, n)
					got := fingerprint(recv)
					mu.Lock()
					if first, ok := out[key]; ok && first != got && differ == nil {
						differ = fmt.Errorf("%s: rank %d disagrees with another member", key, w.Rank())
					}
					out[key] = got
					mu.Unlock()
				}
			}
			folds.add(env)
			return nil
		})
		if err = cmp.Or(err, differ); err != nil {
			t.Fatalf("%s np%d: %v", device, np, err)
		}
		return out, folds.Load()
	}
	for np := 2; np <= 9; np++ {
		island, folds := run("chan", np)
		messages, none := run("tcp", np)
		if want := uint64(6 * len(combos)); folds != want || none != 0 {
			t.Fatalf("np%d: %d island folds over chan, want %d; %d over tcp, want 0", np, folds, want, none)
		}
		for key, bits := range island {
			if messages[key] != bits {
				t.Fatalf("np%d %s: the island's result differs from the message schedules'", np, key)
			}
		}
	}
}
