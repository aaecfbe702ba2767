package core

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"

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

// TestEverySweepReachesEveryTable: each way of failing operations against
// each state an operation waits in. The engine's only peer is played by
// hand over a joined link, so every state is held exactly where the test
// put it. A swept operation completes with the sweep's error and what
// the request knows (a send's size; a granted receive's matched source,
// not the wildcard it was posted with); a spared one stays where it was;
// a receive a read loop is writing is reached by nothing and lands whole
// afterwards; and the pooled payloads of swept sends are back.
func TestEverySweepReachesEveryTable(t *testing.T) {
	const size = 128 << 10
	errDied := errors.New("the endpoint died")
	body := pattern(size, 9)

	states := []struct {
		name string
		// enter puts one operation on tag into the state.
		enter func(t *testing.T, r *rawPeer, tag int, into []byte) *Request
		bytes int  // a send's size, which it completes with; 0: a receive, completing with its source and tag
		table bool // waits in posted or pending, where sweeps reach
		// cancellable: Cancel takes it (a matched receive is past that).
		cancellable bool
	}{
		{"posted receive", func(t *testing.T, r *rawPeer, tag int, into []byte) *Request {
			return r.p.IrecvInto(0, int32(r.rank), int32(tag), into, 1)
		}, 0, true, true},
		{"rendezvous send awaiting CTS", func(t *testing.T, r *rawPeer, tag int, _ []byte) *Request {
			req, err := r.p.Isend(0, 0, r.rank, tag, transport.GetBuf(size), ModeStandard, true)
			if err != nil {
				t.Fatal(err)
			}
			return req
		}, size, true, true},
		{"lent send awaiting CTS", func(t *testing.T, r *rawPeer, tag int, _ []byte) *Request {
			req, err := r.p.IsendLent(0, 0, r.rank, tag, body, ModeStandard)
			if err != nil {
				t.Fatal(err)
			}
			return req
		}, size, true, true},
		{"sync-eager send awaiting ACK", func(t *testing.T, r *rawPeer, tag int, _ []byte) *Request {
			req, err := r.p.Isend(0, 0, r.rank, tag, transport.GetBuf(64), ModeSync, true)
			if err != nil {
				t.Fatal(err)
			}
			return req
		}, 64, true, true},
		{"granted receive awaiting DATA", func(t *testing.T, r *rawPeer, tag int, into []byte) *Request {
			req := r.p.IrecvInto(0, AnySource, int32(tag), into, 1)
			r.advertise(0, tag, size)
			return req
		}, 0, true, false},
		{"receive handed to a read loop", func(t *testing.T, r *rawPeer, tag int, into []byte) *Request {
			req := r.p.IrecvInto(0, AnySource, int32(tag), into, 1)
			r.write(buildDataHdr(strangerRank, r.advertise(0, tag, size)), body, dataHdrLen+size/2)
			return req
		}, 0, false, false},
	}

	sweeps := []struct {
		name string
		tag  int
		// run sweeps (or tries to) and reports whether an operation
		// waiting in a table must have been taken.
		run   func(r *rawPeer) (taken bool)
		isErr func(error) bool
	}{
		{"peer loss", 8, func(r *rawPeer) bool {
			r.p.failPeer(&transport.PeerLostError{Peer: r.rank})
			return true
		}, func(err error) bool {
			var pl *transport.PeerLostError
			return errors.As(err, &pl)
		}},
		{"loss of another peer", 8, func(r *rawPeer) bool {
			r.p.failPeer(&transport.PeerLostError{Peer: r.rank + 1})
			return false
		}, nil},
		{"endpoint death", 8, func(r *rawPeer) bool {
			r.p.failAll(errDied)
			return true
		}, func(err error) bool { return err == errDied }},
		{"revoke", 8, func(r *rawPeer) bool {
			r.p.Revoke(0)
			return true
		}, func(err error) bool { return errors.Is(err, ErrCommRevoked) }},
		{"revoke, recovery tag", int(RecoveryTag) | 8, func(r *rawPeer) bool {
			r.p.Revoke(0)
			return false
		}, nil},
		{"cancel", 8, nil, nil},
	}

	for _, sw := range sweeps {
		for _, s := range states {
			t.Run(sw.name+"/"+s.name, func(t *testing.T) {
				poolSettles(t)
				mux := transport.NewShmJob(1, 0)[0]
				p := NewProc(mux, Config{})
				// The mux too: after a failAll of the test's own making the
				// engine thinks itself closed and leaves the device be.
				t.Cleanup(func() { p.Close(); mux.Close() })
				r := joinRawPeer(t, p, mux)
				into := make([]byte, size)
				req := s.enter(t, r, sw.tag, into)
				if _, done := req.Test(); done {
					t.Fatalf("completed before the sweep: %+v", req.Stat)
				}

				var taken bool
				if sw.run != nil {
					taken = sw.run(r) && s.table
				} else if taken = r.p.Cancel(req); taken != s.cancellable {
					t.Fatalf("Cancel = %v, want %v", taken, s.cancellable)
				}

				st, done := req.Test()
				if done != taken {
					t.Fatalf("completed = %v, want %v (status %+v)", done, taken, req.Stat)
				}
				if empty := tablesEmpty(r.p); empty != (taken || !s.table) {
					t.Fatalf("tables empty = %v after the sweep", empty)
				}
				if taken {
					want := Status{SourceGroup: r.rank, Tag: sw.tag}
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
					return
				}
				if s.table {
					return // spared: still waiting, and Close sweeps it
				}
				// In no table: only the read loop completes it, and does.
				if _, err := r.conn.Write(body[size/2:]); err != nil {
					t.Fatal(err)
				}
				st = waitStatus(t, req)
				if st.Err != nil || st.Bytes != size || st.SourceGroup != r.rank || st.Tag != sw.tag || !bytes.Equal(into, body) {
					t.Fatalf("landing that outlived the sweep: %+v, intact=%v", st, bytes.Equal(into, body))
				}
			})
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

// TestUnmatchedRtsHoldsNoFrame: an RTS is all header, and everything of
// it is copied into its unexpected-queue entry. The entry must not keep
// the frame as well: endpoint death does not purge the queue, so every
// advertisement nobody received would leak one pooled header.
func TestUnmatchedRtsHoldsNoFrame(t *testing.T) {
	poolSettles(t)
	const n = 16
	p0, p1 := newPair(t, Config{})
	src := pattern(4096, 7)
	for i := 0; i < n; i++ {
		if _, err := p0.IsendLent(0, 0, 1, i, src, ModeStandard); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, fmt.Sprintf("%d advertisements queued unexpected", n), func() bool { return p1.PendingUnexpected() == n })
	p1.Close()
	p0.Close()
	if !tablesEmpty(p0) {
		t.Fatal("Close left advertised sends in the table")
	}
}
