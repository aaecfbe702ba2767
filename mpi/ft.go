package mpi

// ULFM-style fault tolerance (User-Level Failure Mitigation, the MPI
// fault-tolerance working group's extension set). PR 6 built the
// detection half: a dead peer surfaces as ErrProcFailed on the
// operations that depended on it, while traffic with live peers keeps
// working. This file is the recovery half — the application-driven
// repair loop:
//
//	detect   an operation returns ErrProcFailed
//	ack      c.FailureAck() acknowledges the failures seen so far
//	revoke   c.Revoke() poisons the communicator on every member, so
//	         ranks blocked in unrelated operations also reach recovery
//	agree    c.Agree(flags) decides collectively despite failures
//	shrink   c.Shrink() builds a fresh, working communicator from the
//	         survivors
//
// Nothing here is automatic: like ULFM, the library only guarantees
// that failures are reported and that these five primitives work on a
// failing communicator; policy (when to revoke, what state to restore)
// belongs to the application. See examples/jacobi's -survive mode for
// the loop in use, restoring from a PR 5 checkpoint after Shrink.

// FailureAck acknowledges every failure of a member of this
// communicator known locally at the time of the call
// (MPIX_Comm_failure_ack). Acknowledged failures stop Agree from
// raising ErrProcFailed for them, and FailedGroup reports them.
func (c *Comm) FailureAck() error {
	if err := c.ok(); err != nil {
		return c.raise(err)
	}
	down := make(map[int]bool)
	for _, w := range c.env.proc.DownPeers() {
		down[w] = true
	}
	c.ft.mu.Lock()
	defer c.ft.mu.Unlock()
	if c.ft.acked == nil {
		c.ft.acked = make(map[int]bool)
	}
	for gr, w := range c.group {
		if down[w] {
			c.ft.acked[gr] = true
		}
	}
	return nil
}

// FailedGroup returns the group of members whose failure this rank has
// acknowledged (MPIX_Comm_failure_get_acked). The group grows
// monotonically across FailureAck calls.
func (c *Comm) FailedGroup() (*Group, error) {
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	c.ft.mu.Lock()
	defer c.ft.mu.Unlock()
	var ranks []int
	for gr, w := range c.group {
		if c.ft.acked[gr] {
			ranks = append(ranks, w)
		}
	}
	return &Group{ranks: ranks, me: c.env.proc.Rank()}, nil
}

// ackedView snapshots the acked failures as a group-rank bitmap.
func (c *Comm) ackedView() []bool {
	view := make([]bool, len(c.group))
	c.ft.mu.Lock()
	for gr := range c.ft.acked {
		if gr >= 0 && gr < len(view) {
			view[gr] = true
		}
	}
	c.ft.mu.Unlock()
	return view
}

// Revoke poisons the communicator on every member it can reach
// (MPIX_Comm_revoke): in-flight and future operations — sends,
// receives, probes, collectives — fail with ErrRevoked, so members
// blocked on a dead or absent peer reach the recovery path instead of
// deadlocking. The notice propagates at the engine level and each
// member re-floods it on first receipt, so it survives the revoking
// rank itself dying mid-broadcast. Revocation is permanent: the only
// way forward is Shrink (or Agree, whose recovery-tagged traffic is
// exempt from the poisoning). The communicators the runtime duplicated
// from this one for its open files and windows (privateDup) are revoked
// with it, on every member.
func (c *Comm) Revoke() error {
	if err := c.ok(); err != nil {
		return c.raise(err)
	}
	c.env.proc.Revoke(c.ptpCtx)
	return nil
}

// privateDup duplicates c for the runtime's own use, an open file's or a
// window's collectives, and names it c's name + suffix. The application
// cannot name such a communicator, so it cannot revoke it; two rules
// make every collective on it end on every member all the same: a
// revocation of c, however a member learns of it, revokes it too
// (core.Proc.Derive), and a collective on it that fails in its schedule
// revokes it before it raises (collErr).
func (c *Intracomm) privateDup(suffix string) (*Intracomm, error) {
	priv, err := c.Dup()
	if err != nil {
		return nil, err
	}
	priv.SetName(c.Name() + suffix)
	priv.private = true
	c.env.proc.Derive(c.ptpCtx, priv.ptpCtx)
	return priv, nil
}

// Revoked reports whether this communicator has been revoked, by this
// rank or by a notice received from any member.
func (c *Comm) Revoked() bool {
	if c == nil || c.env == nil {
		return false
	}
	return c.env.proc.ContextRevoked(c.ptpCtx)
}

// Agree computes the bitwise AND of flags across the communicator's
// surviving members (MPIX_Comm_agree), completing despite member
// failures and on revoked communicators: its traffic is recovery-tagged
// and routes around dead ranks. If the agreement observes a failure
// this rank has not acknowledged, the folded flags are returned
// together with ErrProcFailed — the ULFM contract; the caller acks
// (FailureAck) and retries, and the retry reconverges. Like every
// collective, all live members must call Agree in the same program
// order.
func (c *Comm) Agree(flags uint32) (uint32, error) {
	if err := c.ok(); err != nil {
		return flags, c.raise(err)
	}
	view := c.ackedView()
	out, _, merged, err := c.cl.Agree(flags, 0, view)
	if err != nil {
		return flags, c.raise(mapErr(err))
	}
	for gr, failed := range merged {
		if failed && !view[gr] {
			return out, c.raise(errf(ErrProcFailed,
				"agreement observed unacknowledged failure of rank %d on %q", gr, c.name))
		}
	}
	return out, nil
}

// Shrink builds a fresh communicator over the surviving members
// (MPIX_Comm_shrink): the members agree — fault-tolerantly, and
// regardless of revocation — on the union of known failures and on a
// fresh context-id base, then rebuild the rank mapping over the
// survivors in their old relative order. The result is a fully working
// communicator: fresh contexts, nothing revoked, ready for
// point-to-point and collective traffic.
//
// Every surviving member must call Shrink in the same program order.
// The survivor set is the agreed failure view; a member that dies
// during the final agreement round may be reported to some survivors
// only — the usual ULFM answer applies (the next operation on the
// shrunken communicator reports the stale member as failed, and the
// application shrinks again).
func (c *Intracomm) Shrink() (*Intracomm, error) {
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	// Merge everything known locally: acked failures plus any deaths
	// the engine has observed that were never acked.
	view := c.ackedView()
	down := make(map[int]bool)
	for _, w := range c.env.proc.DownPeers() {
		down[w] = true
	}
	for gr, w := range c.group {
		if down[w] {
			view[gr] = true
		}
	}
	cand := c.env.proc.AllocContexts()
	_, base, merged, err := c.cl.Agree(0, cand, view)
	if err != nil {
		return nil, c.raise(mapErr(err))
	}
	if err := c.env.proc.CommitContexts(base); err != nil {
		return nil, c.raise(mapErr(err))
	}

	survivors := make([]int, 0, len(c.group))
	myRank := -1
	for gr, w := range c.group {
		if merged[gr] {
			continue
		}
		if gr == c.rank {
			myRank = len(survivors)
		}
		survivors = append(survivors, w)
	}
	if myRank < 0 {
		return nil, c.raise(errf(ErrIntern, "shrink excluded the local rank from %q", c.name))
	}
	return newIntracomm(c.env, survivors, myRank, base, c.name+".shrink"), nil
}
