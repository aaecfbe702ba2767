package core

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gompi/internal/transport"
)

// Everything that fails operations is one loop (failWhereLocked) under a
// predicate, and everything it can reach is in posted or pending. These
// tests hold each sweep to each state an operation can wait in, and the
// two ways an operation used to slip past all of them.

// tablesEmpty reports whether p holds no posted and no pending operation.
func tablesEmpty(p *Proc) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.posted)+len(p.pending) == 0
}

// barred reports whether p bars an operation on context 0 with tag.
func barred(p *Proc, tag int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ctxErrLocked(0, int32(tag)) != nil
}

// drives reports whether req's owner is parked in Wait holding p's
// progress role: whatever completes req must ring it.
func drives(p *Proc, req *Request) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.polling && p.pollFor == req && p.pollParked
}

// TestEverySweepReachesEveryTable: each way of failing operations against
// each state an operation waits in. The engine's peers are played by
// hand over a joined link (rank 2), so every state is held exactly where
// the test put it, and by an engine reached by reference (rank 1) that
// receives only when told to. A swept operation completes with the
// sweep's error and what the request knows (a send's size; a granted
// receive's matched source, not the wildcard it was posted with); a
// spared one stays where it was; what no sweep may reach — a receive a
// read loop is writing, an offer its receiver has taken — completes
// whole afterwards; and the pooled payloads of swept sends are back.
//
// Every sweep fires from another goroutine while the operation's owner
// is parked holding the progress role, where only a ring of its bell
// wakes it: the owner must return within a bounded time of its
// operation's completion, whichever way that comes — a sweep, the loan
// of a taken offer coming home, a read loop finishing a landing, or the
// engine's close — and no goroutine may outlive the case. The owner
// parks in the request's Wait, or (the cases named "… (collective
// wait)") in Await on a predicate the operation's OnDone callback makes
// true, as a caller in a collective schedule's Wait does — for a
// one-shot or a persistent activation alike — over the receive or send
// the schedule is gated on. The "revoke instance" sweep is what WaitCtx
// does to a cancelled schedule's instance (RevokeInstance): it takes
// what a revocation of the pair takes, and a sweep of a sibling instance
// on the same context takes nothing.
func TestEverySweepReachesEveryTable(t *testing.T) {
	const size = 128 << 10
	errDied := errors.New("the endpoint died")
	body := pattern(size, 9)

	type sweepCase struct {
		r    *rawPeer
		q    *Proc // rank 1, reached by reference
		tag  int
		into []byte
		// borrow is the receive holding a taken offer's loan.
		borrow *Request
	}
	states := []struct {
		name string
		// enter puts one operation on tag into the state.
		enter func(t *testing.T, c *sweepCase) *Request
		bytes int  // a send's size, which it completes with; 0: a receive, completing with its source and tag
		byRef bool // waits on rank 1, not on the raw peer
		table bool // waits in posted or pending
		swept bool // a sweep that hits its peer or context takes it
		// cut: closing the engine completes it, with the stream it is read
		// from, though no sweep reaches it.
		cut bool
		// cancellable: Cancel takes it (a matched receive is past that).
		cancellable bool
		// peerless: it waits on no peer (a hold), so no peer's loss takes
		// it, and it completes with its own source.
		peerless bool
		// then, if set, follows the operation to its end after the sweep.
		then func(t *testing.T, c *sweepCase, req *Request, taken bool)
	}{
		{"posted receive", func(t *testing.T, c *sweepCase) *Request {
			return c.r.p.IrecvInto(0, int32(c.r.rank), int32(c.tag), c.into, 1)
		}, 0, false, true, true, false, true, false, nil},
		{"rendezvous send awaiting CTS", func(t *testing.T, c *sweepCase) *Request {
			req, err := c.r.p.Isend(0, 0, c.r.rank, c.tag, transport.GetBuf(size), ModeStandard, true)
			if err != nil {
				t.Fatal(err)
			}
			return req
		}, size, false, true, true, false, true, false, nil},
		{"lent send awaiting CTS", func(t *testing.T, c *sweepCase) *Request {
			req, err := c.r.p.IsendLent(0, 0, c.r.rank, c.tag, body, ModeStandard)
			if err != nil {
				t.Fatal(err)
			}
			return req
		}, size, false, true, true, false, true, false, nil},
		{"sync-eager send awaiting ACK", func(t *testing.T, c *sweepCase) *Request {
			req, err := c.r.p.Isend(0, 0, c.r.rank, c.tag, transport.GetBuf(64), ModeSync, true)
			if err != nil {
				t.Fatal(err)
			}
			return req
		}, 64, false, true, true, false, true, false, nil},
		{"granted receive awaiting DATA", func(t *testing.T, c *sweepCase) *Request {
			req := c.r.p.IrecvInto(0, AnySource, int32(c.tag), c.into, 1)
			c.r.advertise(0, c.tag, size)
			return req
		}, 0, false, true, true, false, false, false, nil},
		{"island hold", func(t *testing.T, c *sweepCase) *Request {
			return c.r.p.Irecv(0, NoSource, int32(c.tag))
		}, 0, false, true, true, false, true, true, func(t *testing.T, c *sweepCase, req *Request, taken bool) {
			// Spared, it is the island's to complete, and Settle does,
			// once; a swept one is no longer posted, and Settle leaves it.
			if !taken {
				if !c.r.p.Settle(req, nil) {
					t.Fatal("Settle found the spared hold gone")
				}
				if st := waitStatus(t, req); st.Err != nil || st.Cancelled || st.SourceGroup != int(NoSource) || st.Tag != c.tag {
					t.Fatalf("settled hold completed with %+v", st)
				}
			}
			if c.r.p.Settle(req, errors.New("a second settle")) {
				t.Fatal("a completed hold was settled again")
			}
		}},
		{"receive handed to a read loop", func(t *testing.T, c *sweepCase) *Request {
			req := c.r.p.IrecvInto(0, AnySource, int32(c.tag), c.into, 1)
			c.r.write(buildDataHdr(strangerRank, c.r.advertise(0, c.tag, size)), body, dataHdrLen+size/2)
			return req
		}, 0, false, false, false, true, false, false, func(t *testing.T, c *sweepCase, req *Request, taken bool) {
			if taken {
				return // the close cut the stream mid-body
			}
			// In no table: only the read loop completes it, and does.
			if _, err := c.r.conn.Write(body[size/2:]); err != nil {
				t.Fatal(err)
			}
			st := waitStatus(t, req)
			if st.Err != nil || st.Bytes != size || st.SourceGroup != c.r.rank || st.Tag != c.tag || !bytes.Equal(c.into, body) {
				t.Fatalf("landing that outlived the sweep: %+v, intact=%v", st, bytes.Equal(c.into, body))
			}
		}},
		{"lent offer queued at a by-reference receiver", func(t *testing.T, c *sweepCase) *Request {
			req, err := c.r.p.IsendLent(0, 0, 1, c.tag, body, ModeStandard)
			if err != nil {
				t.Fatal(err)
			}
			eventually(t, "the offer queued unexpected", func() bool { return c.q.PendingUnexpected() == 1 })
			return req
		}, size, true, true, true, false, true, false, func(t *testing.T, c *sweepCase, req *Request, taken bool) {
			revoked := taken && (errors.Is(req.Stat.Err, ErrCommRevoked) || errors.Is(req.Stat.Err, ErrInstanceCancelled))
			if revoked {
				eventually(t, "the revocation reaching the receiver", func() bool { return barred(c.q, c.tag) })
			}
			st := waitStatus(t, c.q.IrecvInto(0, 0, int32(c.tag), c.into, 1))
			switch {
			case !taken: // still out: the receive takes it, and the send completes
				if st.Err != nil || st.Bytes != size || !bytes.Equal(c.into, body) {
					t.Fatalf("receive of a spared offer: %+v, intact=%v", st, bytes.Equal(c.into, body))
				}
				if st := waitStatus(t, req); st.Err != nil || st.Bytes != size {
					t.Fatalf("spared offer completed with %+v", st)
				}
			case revoked: // the receiver purged it
				if st.Err == nil || !errors.Is(st.Err, errors.Unwrap(req.Stat.Err)) {
					t.Fatalf("receive on the revoked receiver: %+v", st)
				}
			case !errors.Is(st.Err, ErrWithdrawn) || st.Bytes != 0:
				t.Fatalf("receive matching a withdrawn offer: %+v", st)
			}
			if taken {
				eventually(t, "the withdrawn offer's loan coming home", func() bool { return atomic.LoadInt32(req.offer()) == offerBack })
			}
		}},
		{"lent offer taken", func(t *testing.T, c *sweepCase) *Request {
			borrow := c.q.IrecvBorrow(0, 0, int32(c.tag))
			req, err := c.r.p.IsendLent(0, 0, 1, c.tag, body, ModeStandard)
			if err != nil {
				t.Fatal(err)
			}
			waitStatus(t, borrow)
			c.borrow = borrow
			return req
		}, size, true, true, false, false, false, false, func(t *testing.T, c *sweepCase, req *Request, _ bool) {
			// Spared by everything: the loan's return, and only that,
			// completes it.
			c.borrow.Recycle()
			if st := waitStatus(t, req); st.Err != nil || st.Cancelled || st.Bytes != size {
				t.Fatalf("taken offer completed with %+v", st)
			}
		}},
	}

	sweeps := []struct {
		name string
		tag  int
		// run sweeps (or tries to) and reports whether an operation
		// waiting on peer in a table must have been taken.
		run   func(p *Proc, peer int) (taken bool)
		isErr func(error) bool
		// closes: it closes the engine, which cuts what it reads too.
		closes bool
		// ofPeer: it takes only what waits on a peer.
		ofPeer bool
	}{
		{"peer loss", 8, func(p *Proc, peer int) bool {
			p.failPeer(&transport.PeerLostError{Peer: peer})
			return true
		}, func(err error) bool {
			var pl *transport.PeerLostError
			return errors.As(err, &pl)
		}, false, true},
		{"loss of another peer", 8, func(p *Proc, peer int) bool {
			p.failPeer(&transport.PeerLostError{Peer: peer + 1})
			return false
		}, nil, false, true},
		{"endpoint death", 8, func(p *Proc, _ int) bool {
			p.failAll(errDied)
			return true
		}, func(err error) bool { return err == errDied }, false, false},
		{"close", 8, func(p *Proc, _ int) bool {
			p.Close()
			return true
		}, func(err error) bool {
			var pl *transport.PeerLostError
			return errors.Is(err, transport.ErrClosed) || errors.As(err, &pl)
		}, true, false},
		{"revoke", 8, func(p *Proc, _ int) bool {
			p.Revoke(0)
			return true
		}, func(err error) bool { return errors.Is(err, ErrCommRevoked) }, false, false},
		{"revoke, recovery tag", int(RecoveryTag) | 8, func(p *Proc, _ int) bool {
			p.Revoke(0)
			return false
		}, nil, false, false},
		{"revoke instance", 8, func(p *Proc, _ int) bool {
			p.RevokeInstance(0, 8, true)
			return true
		}, func(err error) bool { return errors.Is(err, ErrInstanceCancelled) }, false, false},
		{"revoke a sibling instance", 8, func(p *Proc, _ int) bool {
			p.RevokeInstance(0, 8+1<<TagFamBits, true)
			return false
		}, nil, false, false},
		{"cancel", 8, nil, nil, false, false},
	}

	owners := []struct {
		suffix string
		// wait parks until req completes; mine is the request the
		// progress role is held for.
		wait func(p *Proc, req *Request) *Status
		mine bool
	}{
		{"", func(_ *Proc, req *Request) *Status { return req.Wait() }, true},
		{" (collective wait)", func(p *Proc, req *Request) *Status {
			done := false
			req.OnDone(func() { done = true })
			p.Await(func() bool { return done })
			return &req.Stat
		}, false},
	}

	for _, sw := range sweeps {
		for _, s := range states {
			for _, owner := range owners {
				t.Run(sw.name+"/"+s.name+owner.suffix, func(t *testing.T) {
					poolSettles(t)
					base := runtime.NumGoroutine()
					waited := make(chan *Status, 1)
					// Runs once everything below is closed: the owner is back
					// from Wait, and nothing else of the case is left running.
					t.Cleanup(func() {
						select {
						case <-waited:
						case <-time.After(5 * time.Second):
							t.Error("the owner parked in Wait outlived the engine's close")
						}
						goroutinesSettle(t, base)
					})
					muxes := transport.NewShmJob(2, 0)
					p, q := NewProc(muxes[0], Config{}), NewProc(muxes[1], Config{})
					// Rank 1 re-floods a revocation to nobody: a notice it sent
					// while closing would reach the pool after this test.
					q.RegisterGroup(0, []int{1})
					// The mux too: after a failAll of the test's own making the
					// engine thinks itself closed and leaves the device be.
					t.Cleanup(func() { p.Close(); muxes[0].Close(); q.Close() })
					c := &sweepCase{r: joinRawPeer(t, p, muxes[0]), q: q, tag: sw.tag, into: make([]byte, size)}
					req := s.enter(t, c)
					if _, done := req.Test(); done {
						t.Fatalf("completed before the sweep: %+v", req.Stat)
					}
					mine := req
					if !owner.mine {
						mine = nil
					}
					go func() { waited <- owner.wait(p, req) }()
					eventually(t, "the owner parked, holding the progress role", func() bool { return drives(p, mine) })
					// woken holds the owner to returning soon after its operation
					// completed.
					woken := func(how string) {
						t.Helper()
						select {
						case st := <-waited:
							waited <- st // for the cleanup
						case <-time.After(5 * time.Second):
							t.Fatalf("the owner parked in Wait slept through %s", how)
						}
					}

					peer := c.r.rank
					if s.byRef {
						peer = 1
					}
					var taken bool
					if sw.run != nil {
						taken = sw.run(p, peer) && (s.swept || sw.closes && s.cut) && !(s.peerless && sw.ofPeer)
					} else if taken = p.Cancel(req); taken != s.cancellable {
						t.Fatalf("Cancel = %v, want %v", taken, s.cancellable)
					}

					st, done := req.Test()
					if done != taken {
						t.Fatalf("completed = %v, want %v (status %+v)", done, taken, req.Stat)
					}
					if empty := tablesEmpty(p); empty != (taken || !s.table) {
						t.Fatalf("tables empty = %v after the sweep", empty)
					}
					if taken {
						want := Status{SourceGroup: peer, Tag: sw.tag}
						if s.peerless {
							want.SourceGroup = int(NoSource)
						}
						if s.bytes > 0 {
							want = Status{Bytes: s.bytes}
						}
						if sw.run == nil {
							want = Status{Bytes: s.bytes, Cancelled: true}
						}
						got := *st
						got.Err = nil
						if got != want || (st.Err != nil) != (sw.isErr != nil) || (st.Err != nil && !sw.isErr(st.Err)) {
							t.Fatalf("swept with %+v, want %+v with this sweep's error", *st, want)
						}
						woken("the sweep")
					}
					if s.then != nil {
						s.then(t, c, req, taken)
					}
					if _, done := req.Test(); done {
						woken("its operation's completion")
					}
				})
			}
		}
	}
}

// TestFirstFrameRefused: a rendezvous, lent or synchronous send whose
// first frame the device refuses has nobody left to answer it — a peer
// reached by reference closes without a loss report, and a connection
// that only refuses writes reports nothing either — so it must leave the
// table and complete with the refusal, there and then, and a pooled
// payload that never shipped must go back.
func TestFirstFrameRefused(t *testing.T) {
	const size = 128 << 10
	kinds := []struct {
		name string
		send func(p *Proc, dst int) (*Request, error)
	}{
		{"rendezvous", func(p *Proc, dst int) (*Request, error) {
			return p.Isend(0, 0, dst, 1, transport.GetBuf(size), ModeStandard, true)
		}},
		{"lent", func(p *Proc, dst int) (*Request, error) {
			return p.IsendLent(0, 0, dst, 1, pattern(size, 4), ModeStandard)
		}},
		{"sync", func(p *Proc, dst int) (*Request, error) {
			return p.Isend(0, 0, dst, 1, transport.GetBuf(64), ModeSync, true)
		}},
	}
	media := []struct {
		name string
		// dead returns an engine and a rank whose route refuses frames
		// without anything reporting that rank lost.
		dead func(t *testing.T) (*Proc, int)
	}{
		{"chan", func(t *testing.T) (*Proc, int) {
			p0, p1 := newPair(t, Config{})
			p1.Close()
			return p0, 1
		}},
		{"closed connection", func(t *testing.T) (*Proc, int) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			near, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			far, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { far.Close() })
			mux := transport.NewShmJob(1, 0)[0]
			p := NewProc(mux, Config{})
			t.Cleanup(func() { p.Close() })
			rank, err := mux.Join(near, PatchFrameSource)
			if err != nil {
				t.Fatal(err)
			}
			// Shut the sending half only: writes fail from here on,
			// while the read loop sees nothing wrong with the stream.
			if err := near.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			return p, rank
		}},
	}
	for _, m := range media {
		for _, k := range kinds {
			t.Run(m.name+"/"+k.name, func(t *testing.T) {
				poolSettles(t)
				p, dst := m.dead(t)
				req, err := k.send(p, dst)
				if err == nil {
					t.Fatal("the send was accepted")
				}
				if p.PeerDown(dst) {
					t.Fatal("the rank was reported lost: the send was barred, not refused")
				}
				st, done := req.Test()
				if !done || st.Err == nil || !errors.Is(err, st.Err) {
					t.Fatalf("after %v: completed=%v, status %+v; want the request failed with the refusal", err, done, req.Stat)
				}
				if !tablesEmpty(p) {
					t.Fatal("the refused send is still in the table")
				}
			})
		}
	}
}

// TestUnmatchedRtsHoldsNoFrame: an RTS header is all copied into its
// unexpected-queue entry. The entry must not keep it as well: endpoint
// death does not purge the queue, so every advertisement nobody
// received would leak one pooled header. An offer's entry holds its
// loan and the payload it lends, and nothing from the pool.
func TestUnmatchedRtsHoldsNoFrame(t *testing.T) {
	const n, size = 16, 128 << 10
	src := pattern(size, 7)
	for _, c := range []struct {
		name string
		send func(p *Proc, tag int) (*Request, error)
		lent bool
	}{
		{"rendezvous", func(p *Proc, tag int) (*Request, error) {
			return p.Isend(0, 0, 1, tag, src, ModeStandard, false)
		}, false},
		{"lent, by reference", func(p *Proc, tag int) (*Request, error) {
			return p.IsendLent(0, 0, 1, tag, src, ModeStandard)
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			poolSettles(t)
			p0, p1 := newPair(t, Config{})
			for i := 0; i < n; i++ {
				if _, err := c.send(p0, i); err != nil {
					t.Fatal(err)
				}
			}
			eventually(t, fmt.Sprintf("%d advertisements queued unexpected", n), func() bool { return p1.PendingUnexpected() == n })
			p1.mu.Lock()
			for _, m := range p1.arrived {
				if f := m.frame; f.Data != nil || f.PayloadPooled() || f.Lent() != c.lent || c.lent && len(m.payload) != size {
					t.Errorf("queued entry holds header %d B, pooled payload %v, loan %v, payload %d B", len(f.Data), f.PayloadPooled(), f.Lent(), len(m.payload))
				}
			}
			p1.mu.Unlock()
			p1.Close()
			p0.Close()
			if !tablesEmpty(p0) {
				t.Fatal("Close left advertised sends in the table")
			}
		})
	}
}

// TestLentOfferToSelfRevoked: a rank lends a message to itself and
// nobody receives it. Revocation fails the send and purges the offer
// from the queue, and the purged frame's loan — whose return takes this
// very engine's lock — goes home once that lock is dropped, whether the
// rank revoked or a peer's notice did.
func TestLentOfferToSelfRevoked(t *testing.T) {
	for _, by := range []string{"here", "by a peer"} {
		t.Run(by, func(t *testing.T) {
			poolSettles(t)
			p0, p1 := newPair(t, Config{})
			// Rank 0 floods a revocation to nobody: a notice in flight at
			// cleanup would reach the pool after this test.
			p0.RegisterGroup(0, []int{0})
			sreq, err := p0.IsendLent(0, 0, 0, 1, pattern(96<<10, 2), ModeStandard)
			if err != nil {
				t.Fatal(err)
			}
			eventually(t, "the offer queued unexpected", func() bool { return p0.PendingUnexpected() == 1 })
			revoker := p0
			if by != "here" {
				revoker = p1
			}
			revoked := make(chan struct{})
			go func() { revoker.Revoke(0); close(revoked) }()
			select {
			case <-revoked:
			case <-time.After(5 * time.Second):
				t.Fatal("Revoke deadlocked")
			}
			if st := waitStatus(t, sreq); !errors.Is(st.Err, ErrCommRevoked) {
				t.Fatalf("self-lent send completed with %+v, want revoked", st)
			}
			eventually(t, "the purged offer's loan coming home", func() bool { return atomic.LoadInt32(sreq.offer()) == offerBack })
			if n := p0.PendingUnexpected(); n != 0 {
				t.Fatalf("%d messages still queued after the revocation", n)
			}
		})
	}
}

// TestParkedProbeSeesEverySweep: a Probe holding the progress role waits
// for a state, not for a request, so no completion rings it. Whatever
// bars the message it probes for from ever arriving — a revocation, its
// source's loss, the endpoint's death or close — fired from another
// goroutine must ring it instead: Probe returns that error, and Iprobe
// reports the same one.
func TestParkedProbeSeesEverySweep(t *testing.T) {
	lost := func(err error) bool {
		var pl *transport.PeerLostError
		return errors.As(err, &pl)
	}
	closed := func(err error) bool { return errors.Is(err, transport.ErrClosed) }
	for _, c := range []struct {
		name  string
		sweep func(p *Proc)
		isErr func(error) bool
	}{
		{"revoke", func(p *Proc) { p.Revoke(0) }, func(err error) bool { return errors.Is(err, ErrCommRevoked) }},
		{"loss of its source", func(p *Proc) { p.failPeer(&transport.PeerLostError{Peer: 1}) }, lost},
		{"endpoint death", func(p *Proc) { p.failAll(errors.New("the endpoint died")) }, closed},
		{"close", func(p *Proc) { p.Close() }, closed},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			muxes := transport.NewShmJob(2, 0)
			p, q := NewProc(muxes[0], Config{}), NewProc(muxes[1], Config{})
			probed := make(chan error, 1)
			go func() {
				_, err := p.Probe(0, 1, 5)
				probed <- err
			}()
			eventually(t, "Probe parked holding the progress role", func() bool { return drives(p, nil) })
			c.sweep(p)
			select {
			case err := <-probed:
				if !c.isErr(err) {
					t.Fatalf("Probe returned %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the parked Probe slept through the sweep")
			}
			if _, found, err := p.Iprobe(0, 1, 5); found || !c.isErr(err) {
				t.Fatalf("Iprobe after the sweep: found=%v, %v", found, err)
			}
			p.Close()
			muxes[0].Close()
			q.Close()
			goroutinesSettle(t, base)
		})
	}
}
