package coll

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"gompi/internal/core"
	"gompi/internal/obs"
	"gompi/internal/transport"
)

// Request is a handle on one activation of a collective schedule. It
// completes exactly once, with its error alone: the result is wherever
// the plan's builder bound it (a reduction's accumulator, a
// data-movement plan's Blocks, a file read's ReadResult). Wait, Test
// and WaitCtx may be called from any goroutine, concurrently. Whoever
// waits runs the schedule: a caller in Wait runs its steps whenever it
// is runnable and parks, holding the rank's progress role, while it
// waits for a message; a schedule that becomes runnable while nobody
// waits resumes on a goroutine of its own, which ends at its next park.
type Request struct {
	s   *sched
	tag int32 // a tag of the activation's instance, for WaitCtx to revoke

	// Who runs the steps, guarded by the engine lock (core.Proc.Await,
	// Publish and OnDone callbacks all run under it): waiters counts the
	// callers in Wait, and ready hands a runnable schedule to one of them.
	waiters int
	ready   bool

	// done is set under the engine lock once err is final; Test reads
	// it without.
	done atomic.Bool
	err  error
}

// Wait blocks until the collective completes on this member, running
// the schedule's steps itself whenever they are runnable.
func (r *Request) Wait() error { return r.wait(false) }

// wait is Wait for a caller that is already counted among the waiters
// (joined) or not yet.
func (r *Request) wait(joined bool) error {
	s := r.s
	for {
		run := false
		s.c.P.Await(func() bool {
			if !joined {
				r.waiters++
				joined = true
			}
			if r.done.Load() {
				r.waiters--
				return true
			}
			run, r.ready = r.ready, false
			return run
		})
		if !run {
			return r.err
		}
		s.run()
	}
}

// Test reports whether the collective has completed, and its error if
// so.
func (r *Request) Test() (bool, error) {
	if !r.done.Load() {
		return false, nil
	}
	return true, r.err
}

// WaitCtx is Wait, except that when ctx is done first the activation is
// cancelled, and WaitCtx returns ctx's error promptly, even when a peer
// never shows up.
//
// A cancelled instance ends on every member. Cancelling revokes the
// instance (core.Proc.RevokeInstance) on this member and, by a notice,
// on every other: what of it is in flight fails, what arrives for it is
// dropped, and a member still in the call, or making it late, gets
// core.ErrInstanceCancelled instead of waiting for a message that will
// not come; a member whose call had completed keeps its result. WaitCtx
// returns once nothing of the activation is left in flight, so the
// buffers bound to it are the caller's again. The communicator and its
// later collectives carry on — every member still makes every call, in
// order — and a persisted plan's later activations fail alike, as they
// reuse the instance. An island fold (island.go) is cancelled on this
// member alone: it leaves a copy of its contribution, and the others'
// call completes without it waiting.
func (r *Request) WaitCtx(ctx context.Context) error {
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		// An activation that has completed is left alone. The sweep
		// completes what the schedule is parked on, so it wakes and
		// tears itself down.
		if !r.done.Load() {
			r.s.c.P.RevokeInstance(r.s.c.Ctx, r.tag, !r.s.local)
		}
		close(fired)
	})
	err := r.Wait()
	if !stop() {
		<-fired
	}
	if errors.Is(err, core.ErrInstanceCancelled) && ctx.Err() != nil {
		return ctx.Err()
	}
	// Completed normally despite the deadline, or failed for a reason of
	// its own, which is not masked as a clean timeout.
	return err
}

// fut is the seam between a step that posts a nonblocking receive and
// the later step that consumes it: the posting step fills req, the
// consuming step is gated on its completion and empties it again (so a
// persistent schedule can refill it on the next activation). The
// consumer only reads a payload while its step runs: the frame stays
// with the request and is released when the step ends — back to the
// pool, or back to the partner that lent it, whose memory such a
// receive may read in place (core.Proc.IrecvBorrow): the schedule, not
// the user, bounds how long it is held. Nothing a schedule receives is
// kept or forwarded by reference.
type fut struct {
	req *core.Request
	// into, when set, names the window the payload lands in (a
	// receive-into), read when the receive is posted: the payload must
	// fill it exactly, and the consumer is handed nothing. A nil window
	// leaves the payload to the consumer.
	into func() []byte
	win  []byte // the window the posted receive lands in, if any
	// leave, when set, is told when a teardown finds req posted and
	// never to be consumed: req is a hold (an island member's wait, see
	// island.go), which the island must stop settling, and whose
	// member's buffers it must stop reading, before the schedule
	// completes.
	leave func(req *core.Request)
}

// span is a byte range of a schedule's accumulator. Schedules name
// windows by range, not by slice: the accumulator is bound by pointer
// and may be a different buffer at every activation.
type span struct{ lo, hi int }

func (w span) of(acc *[]byte) []byte { return (*acc)[w.lo:w.hi:w.hi] }

// step is one unit of a collective schedule. run posts nonblocking
// operations and folds received data into the algorithm's state; a step
// with a gate does not run until the gated operation has completed, so
// run never blocks on message arrival — the executor parks the whole
// schedule instead.
type step struct {
	gate *fut
	run  func() error
}

// sched is one collective operation's schedule: the ordered steps the
// algorithm compiled into, the progress state they share, and the sends
// still in flight. A schedule is built synchronously inside the
// collective call (so tag allocation happens in program order on every
// member) and executed by run, the one step loop. Exactly one goroutine
// runs a schedule's steps at a time: the caller that starts it, up to
// its first wait for a message; after that whoever the activation's
// Request says (see wake). Where the schedule must wait it parks (see
// park): it occupies no goroutine until the completion callback of the
// last operation it waits for makes it runnable, and run continues at
// the same program counter.
type sched struct {
	c     *Comm
	inst  uint32 // this collective instance's sequence number
	space int    // 0, or tagPersistent for a persistent plan's tags
	// req is the running activation's request, nil between activations:
	// a Start's, which its caller keeps, or own, the blocking Run's,
	// which never leaves the schedule and so is reset, not allocated,
	// by every Run.
	req    *Request
	own    Request
	steps  []step
	resets []func() // per-activation state initializers, run by arm
	pc     int      // index of the next step to run
	// pend holds the outstanding isends, drained at the end; in a
	// teardown, everything still posted. drop empties it and keeps its
	// array for the next activation.
	pend []*core.Request

	// Parking state: while the schedule is parked, waits counts the
	// completions still owed before it becomes runnable again.
	waits atomic.Int32
	wake  func() // bound once; decrements waits, hands the schedule on at zero
	// local marks an island fold, whose members exchange no message: a
	// cancellation revokes its instance on this member only.
	local bool

	// armed is set from arm to finish: the activation's flight-recorder
	// span is open, and its coll.sched event carries its duration.
	armed bool
}

// newSched builds an empty schedule and mints its instance number —
// unconditionally, before any validation, so the sequence advances by
// exactly one per collective call on every member regardless of local
// outcomes.
func (c *Comm) newSched() *sched {
	s := &sched{c: c, inst: c.mint(&c.seq, 0)}
	s.wake = func() {
		// Runs under the engine lock (completion callback): the last
		// completion hands the runnable schedule to a caller waiting for
		// it, or else to a goroutine of its own.
		if s.waits.Add(-1) == 0 {
			s.resumed()
			if r := s.req; r.waiters > 0 {
				r.ready = true
			} else {
				go s.run()
			}
		}
	}
	return s
}

// tag is the matching tag of one family within this instance, computed
// when a step posts: Persist moves a built plan to the persistent space.
// Composed schedules (reduce-scatter, ordered allreduce) use several
// families under one instance number; no composition uses a family
// twice, so tags stay unique within the instance.
func (s *sched) tag(family int) int {
	return s.space | int(s.inst%seqPeriod)<<core.TagFamBits | family
}

func (s *sched) step(fn func() error) { s.steps = append(s.steps, step{run: fn}) }

// onReset registers a per-activation state initializer. Builders route
// every piece of mutable algorithm state they would otherwise initialize
// at build time through a reset, which makes the schedule re-runnable:
// one-shot schedules arm once, persistent ones re-arm on every Start.
func (s *sched) onReset(fn func()) { s.resets = append(s.resets, fn) }

// arm runs the registered resets, initializing the activation's state.
// Every activation passes through here exactly once — one-shot or
// persistent — so it is also where the activation's span opens.
func (s *sched) arm() {
	for _, fn := range s.resets {
		fn()
	}
	s.c.vars().started.Inc()
	s.armed = true
	s.c.P.Recorder().Begin(obs.EvCollSched, s.inst, 0)
}

// rearm prepares a fresh activation of a schedule whose previous one
// has completed, for start to arm and bind to its request: the program
// counter back at the top. A one-shot plan — one a communicator's cache
// hands to a new call — takes that call's instance, minted from seq in
// program order like NewPlan's, so every call still has tags of its
// own. Only a persisted plan keeps its instance, and with it every
// matching tag: persistent activations are aligned across members by
// the rule that each member completes activation k before starting
// k+1, so round k+1 traffic can never cross-match round k's.
func (s *sched) rearm() {
	if s.space == 0 {
		s.inst = s.c.mint(&s.c.seq, 0)
	}
	s.pc = 0
}

// foldRecvStep appends a post step and a gated consume step for a
// reduction operand: the receive is posted nonblockingly, and fn reads
// the payload in place, straight out of the frame it arrived in, only
// once it has completed, without ever blocking an executor.
func (s *sched) foldRecvStep(src, fam int, fn func([]byte) error) {
	s.postRecv(&fut{}, src, fam, nil, fn)
}

// foldExchStep is the reduction exchange with one partner: it ships a
// private copy of *acc and lends the partner's operand to fn.
func (s *sched) foldExchStep(peer, fam int, acc *[]byte, fn func([]byte) error) {
	s.postRecv(&fut{}, peer, fam, func() error {
		return s.isendCopy(peer, fam, *acc)
	}, fn)
}

// foldExchLentStep is foldExchStep for a window this member neither
// writes nor hands back to its caller while the partner holds it: give,
// a window of *from, goes out on loan — no copy.
func (s *sched) foldExchLentStep(peer, fam int, from *[]byte, give span, fn func([]byte) error) {
	s.postRecv(&fut{}, peer, fam, func() error {
		return s.isendLent(peer, fam, give.of(from))
	}, fn)
}

// fillExchLentStep lends the window give of *acc to the partner and has
// the partner's message deposited straight into the window fill — the
// allgather exchange; the two windows are disjoint.
func (s *sched) fillExchLentStep(peer, fam int, acc *[]byte, give, fill span) {
	s.postRecv(&fut{into: func() []byte { return fill.of(acc) }}, peer, fam, func() error {
		return s.isendLent(peer, fam, give.of(acc))
	}, nil)
}

// postRecv appends the two steps behind the forms above: post the
// receive, then, gated on it, consume it with fn. The receive goes
// first so that a partner's message — or its rendezvous request — finds
// it posted whenever this member got here first; the send's completion
// is left to the drain.
func (s *sched) postRecv(f *fut, src, fam int, send func() error, fn func([]byte) error) {
	s.irecvStep(f, src, fam, send)
	s.consumeStep(f, fn)
}

// irecvStep appends the post half of postRecv: post the receive — a
// receive-into of f's window, else a borrowing one — then run send, if
// any. A schedule that waits for several partners at once appends all
// its posts before the first consumeStep.
func (s *sched) irecvStep(f *fut, src, fam int, send func() error) {
	s.steps = append(s.steps, step{run: func() error {
		tag := int32(s.tag(fam))
		if f.into != nil {
			f.win = f.into()
		}
		if f.win != nil {
			f.req = s.c.P.IrecvInto(s.c.Ctx, int32(src), tag, f.win, 1)
		} else {
			f.req = s.c.P.IrecvBorrow(s.c.Ctx, int32(src), tag)
		}
		if send == nil {
			return nil
		}
		return send() // on failure the teardown finds f posted behind this step
	}})
}

// consumeStep appends the consume half of postRecv: gated on f's
// receive, it hands the payload to fn.
func (s *sched) consumeStep(f *fut, fn func([]byte) error) {
	s.steps = append(s.steps, step{gate: f, run: func() error {
		req, win := f.req, f.win
		f.req, f.win = nil, nil
		st := &req.Stat
		if rerr := st.Err; rerr != nil {
			// A peer died, the communicator was revoked or the instance
			// cancelled mid-schedule: surface it rather than fold a nil
			// payload into the algorithm.
			req.Recycle()
			return rerr
		}
		if win != nil {
			got := st.Bytes
			req.Recycle()
			if want := len(win); got != want {
				return fmt.Errorf("coll: %d bytes arrived for a window of %d", got, want)
			}
			return nil
		}
		err := fn(req.Payload)
		req.Recycle() // releases the frame, or returns the loan
		return err
	}})
}

// start arms the schedule as the activation r and runs its steps on
// the caller up to its first wait for a message, so its first sends and
// receives are posted when it returns.
func (s *sched) start(r *Request) {
	r.tag = int32(s.tag(0))
	s.req = r
	s.arm()
	s.run()
}

// run executes the schedule until it completes or parks. A parked
// schedule is handed on by the completion callback of the last operation
// it waits for; run then resumes at the same program counter.
func (s *sched) run() {
	for {
		if err := s.req.err; err != nil {
			s.fail(err) // resumed mid-teardown
			return
		}
		if s.pc < len(s.steps) {
			st := s.steps[s.pc]
			if st.gate != nil && st.gate.req != nil {
				if _, done := st.gate.req.Test(); !done {
					if s.park([]*core.Request{st.gate.req}) {
						return
					}
					continue // the wait is over; re-check from the top
				}
			}
			if err := st.run(); err != nil {
				s.fail(err)
				return
			}
			s.pc++
			continue
		}
		// Steps exhausted: drain the outstanding sends, parking on the
		// incomplete ones.
		if owed := s.incomplete(); len(owed) > 0 {
			if s.park(owed) {
				return
			}
			continue
		}
		var err error
		for _, r := range s.pend {
			if err == nil && r.Stat.Err != nil {
				err = r.Stat.Err // send failed (peer loss, revocation)
			}
		}
		s.drop()
		if err != nil {
			s.fail(err)
			return
		}
		s.finish(nil)
		return
	}
}

// park suspends the schedule until every request in reqs has completed;
// a cancellation ends the wait by failing them (Request.WaitCtx). park
// returns true when the schedule is genuinely parked: the executor must
// return, and the last completion callback hands the schedule on. When
// everything completed while parking it returns false; the +1 guard
// makes that decision race-free — the callbacks and the final Add
// together reach zero exactly once, wherever the completions land.
func (s *sched) park(reqs []*core.Request) bool {
	inst := s.inst // past the final Add the schedule may run on, finish and be re-armed
	s.waits.Store(int32(len(reqs)) + 1)
	for _, r := range reqs {
		r.OnDone(s.wake)
	}
	if s.waits.Add(-1) == 0 {
		return false
	}
	s.parked(inst, len(reqs))
	return true
}

// parked and resumed account for the two ends of a wait, whichever
// goroutine runs the schedule.
func (s *sched) parked(inst uint32, n int) {
	s.c.vars().parked.Inc()
	s.c.P.Recorder().Instant(obs.EvCollPark, inst, int64(n))
}

func (s *sched) resumed() {
	s.c.vars().resumed.Inc()
	s.c.P.Recorder().Instant(obs.EvCollResume, s.inst, 0)
}

// finish completes the activation's request and wakes whoever waits
// for it. It is the runner's last touch of the schedule: a persistent one
// may be started again the moment the request is done.
func (s *sched) finish(err error) {
	if s.armed {
		s.armed = false
		s.c.P.Recorder().End(obs.EvCollSched, s.inst, 0)
	}
	r := s.req
	s.req = nil
	s.c.P.Publish(func() {
		r.err = err
		r.done.Store(true)
	})
}

// incomplete moves the operations in pend that have not completed to
// its front (pend's order carries no meaning) and returns them.
func (s *sched) incomplete() []*core.Request {
	n := 0
	for i, r := range s.pend {
		if _, done := r.Test(); !done {
			s.pend[i], s.pend[n] = s.pend[n], r
			n++
		}
	}
	return s.pend[:n]
}

// fail tears the activation down after an error or cancellation and
// completes the request with err — once nothing of the activation is
// left in flight. Every operation the engine still can revoke (an
// unmatched receive, an ungranted rendezvous send) is cancelled on the
// spot. The rest are matched, and their completion is owed within
// bounded time whatever the peers' users do: a granted send completes
// when its payload is with the device, or — on loan — when the reader
// lets go of it; a matched receive when the DATA frame, or the sender's
// withdrawal, arrives. The schedule waits for them (parking like any
// other wait; run re-enters here), because until then the engine may
// yet write a receive-into window or a partner may yet read a lent one,
// and the accumulator they live in is the caller's again the moment
// this returns. Everything is then recycled, which releases a frame
// that arrived after all and returns its loan.
func (s *sched) fail(err error) {
	if s.req.err == nil {
		s.req.err = err // marks the teardown begun, for a run resumed in its middle
		for _, st := range s.steps[s.pc:] {
			if f := st.gate; f != nil && f.req != nil {
				s.pend = append(s.pend, f.req) // posted, never to be consumed
				if f.leave != nil {
					f.leave(f.req)
				}
				f.req = nil
			}
		}
		for _, r := range s.pend {
			s.c.P.Cancel(r)
		}
	}
	if owed := s.incomplete(); len(owed) > 0 && s.park(owed) {
		return
	}
	s.drop()
	s.finish(s.req.err)
}

// drop recycles every request in pend, all complete, and empties it.
func (s *sched) drop() {
	for _, r := range s.pend {
		r.Recycle()
	}
	clear(s.pend)
	s.pend = s.pend[:0]
}

// isendCopy sends a private copy of b, for a buffer the schedule goes on
// writing while the message is in flight (the whole accumulator of a
// tree reduction, a scan, or the odd-size pre/post fold: the chan and
// shm devices pass frames by reference, and a partner reads its copy
// with no happens-before to this member's next fold). The copy has
// exactly one destination, so it lives in a pooled frame and carries
// the recycle promise: whoever consumes it returns it to the pool.
func (s *sched) isendCopy(dst, fam int, b []byte) error {
	out := transport.GetBuf(len(b))
	copy(out, b)
	return s.post(dst, fam, out, true)
}

// isendLent sends b on loan (core.Proc.IsendLent): nothing is copied on
// this side, the partner reads b in place, and the send completes — in
// the drain, or in the teardown — when the partner has let go of it. It
// is for a window this member neither writes nor hands back to its
// caller before then.
func (s *sched) isendLent(dst, fam int, b []byte) error {
	req, err := s.c.P.IsendLent(s.c.Ctx, s.c.Rank, s.c.World(dst), s.tag(fam), b, core.ModeStandard)
	return s.track(req, err)
}

// post sends b, which the message takes over: recycle vouches that b
// is a pooled frame nothing else refers to, which the reader returns to
// the pool.
func (s *sched) post(dst, fam int, b []byte, recycle bool) error {
	return s.track(s.c.P.Isend(s.c.Ctx, s.c.Rank, s.c.World(dst), s.tag(fam), b, core.ModeStandard, recycle))
}

// track files a posted send for the completion drain.
func (s *sched) track(req *core.Request, err error) error {
	if err != nil {
		return err
	}
	s.pend = append(s.pend, req)
	return nil
}
