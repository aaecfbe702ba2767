package coll

import (
	"fmt"

	"gompi/internal/core"
)

// Plan is a collective, compiled but not yet run: one schedule instance
// with two ways to execute it — Run (blocking) and Start (nonblocking),
// both running the schedule on the goroutine that waits for it (see
// Request) — and one way to run it again: Rearm, as a new call (the
// plan of a communicator's Cache) or, after Persist, as the next
// activation of a persistent operation.
// Every collective of this package is declared once, as a constructor
// returning its Plan (BarrierPlan … ReduceScatterPlan); NewPlan composes
// custom ones from the same primitives — local compute steps
// interleaved with collective exchange rounds — and the composition
// inherits the forms, cancellation and the
// per-instance tag isolation for free. The parallel I/O layer builds
// its two-phase collective reads and writes this way.
//
// Like every collective, a Plan must be constructed synchronously and
// in the same program order on every member of the communicator (the
// instance number is minted at NewPlan), and every member must add the
// same sequence of exchange primitives. Each primitive draws its own
// reserved tag family, so one Plan may use the same primitive several
// times (e.g. the request and data alltoalls of a two-phase read)
// without its rounds cross-matching.
type Plan struct {
	c   *Comm
	s   *sched
	fam int

	// Bound is what the caller binds to a cached plan's calls (see
	// Cached): set once when the plan is built, read by every call that
	// re-arms it. This package never touches it.
	Bound any
}

// NewPlan starts an empty composed schedule, minting its collective
// instance number. Callers that abort between NewPlan and Run/Start
// leave the instance consumed, exactly like an aborted collective —
// peers whose matching call proceeded stay tag-aligned.
func (c *Comm) NewPlan() *Plan {
	return &Plan{c: c, s: c.newSched(), fam: tagPlan0}
}

// nextFam allocates the next reserved tag family for one exchange
// primitive. The family space is bounded by the tag layout; a plan
// that exhausts it is a builder bug, not a runtime condition.
func (p *Plan) nextFam() int {
	f := p.fam
	if f >= 1<<core.TagFamBits {
		panic(fmt.Sprintf("coll: plan exceeds %d exchange primitives", (1<<core.TagFamBits)-tagPlan0))
	}
	p.fam++
	return f
}

// Step appends a local compute step. Steps run in order on whichever
// goroutine runs the schedule (see Request); an error aborts the
// schedule.
func (p *Plan) Step(fn func() error) { p.s.step(fn) }

// Alltoall appends a pairwise exchange round: parts[j] reaches member
// j, and *out holds the blocks received from every member once the
// round's steps have run. Block sizes may vary. parts must be pre-sized
// to the communicator size, but its contents are read lazily — an
// earlier Step of the same plan may fill them.
func (p *Plan) Alltoall(parts [][]byte, out *[][]byte) error {
	if len(parts) != p.c.Size {
		return fmt.Errorf("coll: plan alltoall with %d parts for %d ranks", len(parts), p.c.Size)
	}
	p.c.addAlltoallStepsFam(p.s, p.nextFam(), parts, out)
	return nil
}

// Publish appends the final step that snapshots the schedule's result:
// what Run returns and what a started Request completes with.
func (p *Plan) Publish(get func() any) { p.s.publish(get) }

// Wire is the payload the result of a plan that delivers one payload —
// a broadcast, a scatter, a reduction — points at, nil for a member
// that gets none. Such a plan publishes a pointer to the payload, which
// boxes for free, not the slice, which every activation would box anew.
func Wire(res any) []byte {
	if p, _ := res.(*[]byte); p != nil {
		return *p
	}
	return nil
}

// Run executes the schedule to completion, the blocking form: Start,
// then Wait, with the caller counted as the waiter from the outset, so
// every step runs on it. A Run is not cancellable; a collective that
// must be is Started and waited with Request.WaitCtx.
//
// The activation's request is the schedule's own: it never escapes the
// call, so a Run allocates nothing of its own.
func (p *Plan) Run() (any, error) {
	r := &p.s.own
	// waiters is set before any step: no completion callback can read
	// it yet.
	*r = Request{s: p.s, waiters: 1}
	p.s.start(r)
	res, err := r.wait(true)
	r.res = nil // the plan pins no result past the call
	return res, err
}

// Start runs the schedule's steps on the caller up to its first wait for
// a message and returns its request (the nonblocking form); a waiting
// schedule occupies no goroutine.
func (p *Plan) Start() *Request {
	r := &Request{s: p.s}
	p.s.start(r)
	return r
}

// Rearm readies a plan whose last activation has completed to Run or
// Start again, against whatever its steps read through their bound
// pointers at that time. A plain plan is re-armed as a new collective
// call: Rearm mints the call's instance, in program order like NewPlan
// (a call that reuses a cached plan, see Cache, makes it instead of
// building one). A persisted plan keeps its instance: Rearm readies its
// next activation, and the caller must have seen the last one complete.
func (p *Plan) Rearm() { p.s.rearm() }

// Done ends the call a cached plan serves: idle again in the cache when
// the call completed (reuse), dropped from it otherwise (a failed or
// abandoned activation), so the next call of its shape builds afresh. A
// plan no longer cached is left alone; the caller drops what it bound
// for the call first, as the plan may be handed to the next one at once.
func (p *Plan) Done(reuse bool) { p.c.plans.Done(p, reuse) }

// Persisted reports whether Persist has moved the plan out of one-shot
// use.
func (p *Plan) Persisted() bool { return p.s.space != 0 }

// Persist moves the plan into the persistent tag space (the MPI-4
// *_init form), under an instance of the communicator's persistent
// sequence, which, like every collective call, Persist mints in program
// order. Each activation is then a Rearm and a Start; they reuse the
// plan's tags, which members keep apart by completing activation k
// before they start k+1.
func (p *Plan) Persist() { p.s.inst, p.s.space = p.c.mint(&p.c.pseq, tagPersistent), tagPersistent }
