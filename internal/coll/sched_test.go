package coll

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/core"
	"gompi/internal/transport"
)

// runGroupCtx executes fn concurrently on n fresh ranks, handing each a
// builder for communicators over successive collective contexts (the
// same context id on every rank), and returns per-rank results.
func runGroupCtx(t *testing.T, n int, fn func(mk func(ctx int32) *Comm) (any, error)) []any {
	t.Helper()
	devs := transport.NewShmJob(n, 0)
	procs := make([]*core.Proc, n)
	for i, d := range devs {
		procs[i] = core.NewProc(d, core.Config{EagerLimit: 256})
	}
	defer func() {
		for _, p := range procs {
			p.Close()
		}
	}()
	results := make([]any, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comms := make(map[int32]*Comm)
			mk := func(ctx int32) *Comm {
				if c, ok := comms[ctx]; ok {
					return c
				}
				c := &Comm{
					P:     procs[rank],
					Ctx:   ctx,
					Rank:  rank,
					Size:  n,
					World: func(gr int) int { return gr },
				}
				comms[ctx] = c
				return c
			}
			results[rank], errs[rank] = fn(mk)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return results
}

// TestOverlappingIbcastsSameFamily: two broadcasts of the same family in
// flight at once, waited in reverse start order — the per-instance
// sequence tags must keep their traffic apart.
func TestOverlappingIbcastsSameFamily(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		results := runGroupCtx(t, n, func(mk func(int32) *Comm) (any, error) {
			c := mk(1)
			var d1, d2 []byte
			if c.Rank == 0 {
				d1 = []byte("first")
				d2 = []byte("second")
			}
			r1, err := c.Ibcast(0, d1)
			if err != nil {
				return nil, err
			}
			r2, err := c.Ibcast(0, d2)
			if err != nil {
				return nil, err
			}
			// Reverse order: the second instance must complete without
			// stealing the first instance's payloads.
			got2, err := r2.Wait()
			if err != nil {
				return nil, err
			}
			got1, err := r1.Wait()
			if err != nil {
				return nil, err
			}
			return [][]byte{Wire(got1), Wire(got2)}, nil
		})
		for r, res := range results {
			got := res.([][]byte)
			if !bytes.Equal(got[0], []byte("first")) || !bytes.Equal(got[1], []byte("second")) {
				t.Fatalf("n=%d rank %d: overlapped bcasts delivered %q/%q", n, r, got[0], got[1])
			}
		}
	}
}

// TestOverlappingMixedCollectives: a barrier, an allreduce, an allgather
// and both scans in flight simultaneously on one communicator.
func TestOverlappingMixedCollectives(t *testing.T) {
	const n = 4
	results := runGroupCtx(t, n, func(mk func(int32) *Comm) (any, error) {
		c := mk(1)
		rb := c.Ibarrier()
		rr := c.Iallreduce([]int32{int32(c.Rank + 1)}, Sum)
		rg := c.Iallgather([]byte{byte(c.Rank)})
		rs := c.Iscan([]int32{int32(c.Rank + 1)}, Sum)
		rx := c.Iexscan([]int32{int32(c.Rank + 1)}, Sum)
		if _, err := rb.Wait(); err != nil {
			return nil, err
		}
		sum, err := rr.Wait()
		if err != nil {
			return nil, err
		}
		blocks, err := rg.Wait()
		if err != nil {
			return nil, err
		}
		scan, err := rs.Wait()
		if err != nil {
			return nil, err
		}
		exscan, err := rx.Wait()
		if err != nil {
			return nil, err
		}
		return []any{sum, blocks, scan, exscan}, nil
	})
	wantSum := int32(n * (n + 1) / 2)
	for r, res := range results {
		vals := res.([]any)
		if got := vals[0].([]int32)[0]; got != wantSum {
			t.Fatalf("rank %d: allreduce %d, want %d", r, got, wantSum)
		}
		blocks := vals[1].([][]byte)
		for j, b := range blocks {
			if len(b) != 1 || b[0] != byte(j) {
				t.Fatalf("rank %d: allgather slot %d = %v", r, j, b)
			}
		}
		if got := vals[2].([]int32)[0]; got != int32((r+1)*(r+2)/2) {
			t.Fatalf("rank %d: scan %d", r, got)
		}
		if r == 0 {
			if vals[3] != nil {
				t.Fatalf("rank 0: exscan result %v, want nil", vals[3])
			}
		} else if got := vals[3].([]int32)[0]; got != int32(r*(r+1)/2) {
			t.Fatalf("rank %d: exscan %d", r, got)
		}
	}
}

// TestScanExscanBackToBackDistinctTags: a Scan and an Exscan overlapped
// in flight must never cross-match — the regression for Exscan sharing
// Scan's tag family.
func TestScanExscanBackToBackDistinctTags(t *testing.T) {
	const n = 4
	results := runGroupCtx(t, n, func(mk func(int32) *Comm) (any, error) {
		c := mk(1)
		rs := c.Iscan([]int64{int64(c.Rank + 1)}, Sum)
		rx := c.Iexscan([]int64{100 * int64(c.Rank+1)}, Sum)
		exscan, err := rx.Wait()
		if err != nil {
			return nil, err
		}
		scan, err := rs.Wait()
		if err != nil {
			return nil, err
		}
		return []any{scan, exscan}, nil
	})
	for r, res := range results {
		vals := res.([]any)
		if got := vals[0].([]int64)[0]; got != int64((r+1)*(r+2)/2) {
			t.Fatalf("rank %d: scan %d", r, got)
		}
		if r > 0 {
			if got := vals[1].([]int64)[0]; got != int64(100*r*(r+1)/2) {
				t.Fatalf("rank %d: exscan %d", r, got)
			}
		}
	}
}

// TestWaitCtxAbsentPeerBarrier: a barrier stalled on a member that never
// arrives must unblock promptly with the context's error, without
// deadlocking the rank or the engine; other communicators stay usable.
func TestWaitCtxAbsentPeerBarrier(t *testing.T) {
	const n = 2
	runGroupCtx(t, n, func(mk func(int32) *Comm) (any, error) {
		if mk(1).Rank == 0 {
			// Rank 1 never enters the barrier on context 3.
			stalled := mk(3)
			req := stalled.Ibarrier()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := req.WaitCtx(ctx)
			if !errors.Is(err, context.DeadlineExceeded) {
				return nil, fmt.Errorf("WaitCtx on stalled barrier: %v, want deadline exceeded", err)
			}
			if waited := time.Since(start); waited > 5*time.Second {
				return nil, fmt.Errorf("WaitCtx took %v, not prompt", waited)
			}
		}
		// Both ranks: the engine and other communicators are unharmed.
		return nil, mk(1).Barrier()
	})
}

// TestWaitCtxCancelThenReuseSameComm: a non-root member cancels out of a
// broadcast whose root is late; the late root's call of the cancelled
// instance fails with core.ErrInstanceCancelled, and the SAME
// communicator keeps working for both members afterwards — the
// per-instance tags keep the cancelled instance's record from ever
// barring later collectives.
func TestWaitCtxCancelThenReuseSameComm(t *testing.T) {
	const n = 2
	results := runGroupCtx(t, n, func(mk func(int32) *Comm) (any, error) {
		c := mk(1)
		if c.Rank == 1 {
			req, err := c.Ibcast(0, nil)
			if err != nil {
				return nil, err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			if _, err := req.WaitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
				return nil, fmt.Errorf("WaitCtx on rootless bcast: %v, want deadline exceeded", err)
			}
		} else {
			// The root arrives late — after rank 1 already cancelled the
			// instance — and its call fails.
			time.Sleep(150 * time.Millisecond)
			if _, err := c.Bcast(0, []byte("late")); !errors.Is(err, core.ErrInstanceCancelled) {
				return nil, fmt.Errorf("late root's Bcast of the cancelled instance: %v, want core.ErrInstanceCancelled", err)
			}
		}
		// The same communicator must still carry ordinary collectives.
		res, err := c.Allreduce([]int32{int32(c.Rank + 1)}, Sum)
		if err != nil {
			return nil, err
		}
		back, err := c.Bcast(0, []byte("again"))
		if err != nil {
			return nil, err
		}
		return []any{res, back}, nil
	})
	for r, res := range results {
		vals := res.([]any)
		if got := vals[0].([]int32)[0]; got != 3 {
			t.Fatalf("rank %d: allreduce after cancel %d, want 3", r, got)
		}
		if !bytes.Equal(vals[1].([]byte), []byte("again")) {
			t.Fatalf("rank %d: bcast after cancel %q", r, vals[1])
		}
	}
}

// TestRequestTestPolling: Test transitions false→true and returns the
// result exactly once completed.
func TestRequestTestPolling(t *testing.T) {
	const n = 3
	runGroupCtx(t, n, func(mk func(int32) *Comm) (any, error) {
		c := mk(1)
		req := c.Iallreduce([]int32{1}, Sum)
		for {
			res, done, err := req.Test()
			if err != nil {
				return nil, err
			}
			if done {
				if got := res.([]int32)[0]; got != n {
					return nil, fmt.Errorf("test result %d, want %d", got, n)
				}
				return nil, nil
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestBlockingUnaffectedByCancelledNeighbour: cancellation on one
// communicator does not disturb in-flight collectives on another.
func TestBlockingUnaffectedByCancelledNeighbour(t *testing.T) {
	const n = 4
	results := runGroupCtx(t, n, func(mk func(int32) *Comm) (any, error) {
		main, side := mk(1), mk(3)
		if main.Rank == 0 {
			req := side.Ibarrier() // ranks 1..3 never enter; abandon it
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if _, err := req.WaitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
				return nil, fmt.Errorf("side barrier: %v", err)
			}
		}
		return main.Allreduce([]float64{float64(main.Rank)}, Max)
	})
	for r, res := range results {
		if got := res.([]float64)[0]; got != float64(n-1) {
			t.Fatalf("rank %d: %v", r, got)
		}
	}
}

// TestParkedScheduleSeesEverySweep: a caller parked in a schedule's
// Wait holds its rank's progress role, so whatever fails the operation
// the schedule is gated on — a revocation, the peer's loss, the engine's
// close — or cancels it (WaitCtx's context) must wake it, and Wait
// returns the failure. The peer never makes its call. Each sweep meets
// a one-shot barrier and a persistent barrier's activation (Persist,
// then Rearm and Start, as every persistent Start runs it).
func TestParkedScheduleSeesEverySweep(t *testing.T) {
	lost := func(err error) bool {
		var pl *transport.PeerLostError
		return errors.As(err, &pl)
	}
	sweeps := []struct {
		name  string
		sweep func(p *core.Proc, peer *transport.Mux, cancel func())
		isErr func(error) bool
	}{
		{"revoke", func(p *core.Proc, _ *transport.Mux, _ func()) { p.Revoke(0) }, func(err error) bool { return errors.Is(err, core.ErrCommRevoked) }},
		{"peer loss", func(_ *core.Proc, peer *transport.Mux, _ func()) { peer.Close() }, lost},
		{"close", func(p *core.Proc, _ *transport.Mux, _ func()) { p.Close() }, func(err error) bool {
			return errors.Is(err, transport.ErrClosed) || lost(err)
		}},
		{"WaitCtx", func(_ *core.Proc, _ *transport.Mux, cancel func()) { cancel() }, func(err error) bool { return errors.Is(err, context.Canceled) }},
	}
	for _, sw := range sweeps {
		for _, form := range []string{"one-shot", "persistent activation"} {
			t.Run(sw.name+"/"+form, func(t *testing.T) {
				base := runtime.NumGoroutine()
				muxes, err := transport.NewLoopbackJob(2)
				if err != nil {
					t.Fatal(err)
				}
				p := core.NewProc(muxes[0], core.Config{})
				c := &Comm{P: p, Ctx: 1, Rank: 0, Size: 2, World: func(r int) int { return r }}
				plan := c.BarrierPlan()
				if form != "one-shot" {
					plan.Persist()
					plan.Rearm()
				}
				req := plan.Start()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				polls, _ := p.Obs().Value("core.caller_polls")
				waited := make(chan error, 1)
				go func() {
					var err error
					if sw.name == "WaitCtx" {
						_, err = req.WaitCtx(ctx)
					} else {
						_, err = req.Wait()
					}
					waited <- err
				}()
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					if n, _ := p.Obs().Value("core.caller_polls"); n > polls {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("the waiter never parked holding the progress role")
					}
				}
				sw.sweep(p, muxes[1], cancel)
				select {
				case err := <-waited:
					if !sw.isErr(err) {
						t.Fatalf("Wait returned %v", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("the parked waiter slept through the %s", sw.name)
				}
				p.Close()
				muxes[0].Close()
				muxes[1].Close()
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines, %d before the case", runtime.NumGoroutine(), base)
					}
				}
			})
		}
	}
}

// TestCancelledInstanceRecordLastsHalfAPeriod: a cancelled instance's
// record (core.Proc.RevokeInstance) bars that instance's tags, and no
// other's, until this member mints the number half a period past it —
// by a skipped call in the one-shot space, by a Persist in the
// persistent one — and not one call sooner. ForgetGroup drops it at
// once.
func TestCancelledInstanceRecordLastsHalfAPeriod(t *testing.T) {
	p := core.NewProc(transport.NewShmJob(1, 0)[0], core.Config{})
	defer p.Close()
	c := &Comm{P: p, Ctx: 1, Rank: 0, Size: 1, World: func(r int) int { return r }}
	barred := func(space int, inst uint32) bool {
		req := p.Irecv(c.Ctx, 0, int32(space|int(inst%seqPeriod)<<core.TagFamBits|tagBcast))
		_, done := req.Test()
		if !done {
			p.Cancel(req)
		}
		req.Recycle()
		return done
	}
	const inst = 5
	for _, sp := range []struct {
		name  string
		space int
		seq   *atomic.Uint32
		mint  func()
	}{
		{"one-shot", 0, &c.seq, c.SkipInstance},
		{"persistent", tagPersistent, &c.pseq, func() { c.BarrierPlan().Persist() }},
	} {
		p.RevokeInstance(c.Ctx, int32(sp.space|inst<<core.TagFamBits|tagGather), false)
		if !barred(sp.space, inst) || barred(sp.space, inst+1) || barred(tagPersistent-sp.space, inst) {
			t.Fatalf("%s: the record bars the wrong instances", sp.name)
		}
		sp.seq.Store(inst + seqPeriod/2 - 1)
		sp.mint()
		if !barred(sp.space, inst) {
			t.Fatalf("%s: the record was dropped a call before half a period", sp.name)
		}
		sp.mint()
		if barred(sp.space, inst) {
			t.Fatalf("%s: the record outlived the mint half a period on", sp.name)
		}
	}
	p.RevokeInstance(c.Ctx, inst<<core.TagFamBits, false)
	p.ForgetGroup(c.Ctx - 1)
	if barred(0, inst) {
		t.Fatal("ForgetGroup left the record")
	}
}
