package mpi

import (
	"encoding/binary"
	"slices"

	"gompi/internal/core"
)

// Intercomm is a communicator connecting two disjoint groups (paper
// Fig. 1): point-to-point ranks address the remote group.
type Intercomm struct {
	Comm
	// low marks the side that orders first when Merge receives equal
	// high flags (decided by leader world rank at creation).
	low bool
}

// The leader relays' reserved tags on the collective context. A
// collective tag's low four bits are its family, and family 0 is one no
// schedule mints.
const (
	tagInter     = 1 << 4 // the symmetric exchange (Barrier, Allreduce, Merge, Dup)
	tagInterColl = 2 << 4 // the rooted relay (Bcast)
)

// CreateIntercomm builds an intercommunicator from two intracommunicators
// joined by a peer communicator at the leaders
// (MPI_Intercomm_create; mpiJava Intracomm.Create_intercomm). All members
// of the local communicator call it; peer and remoteLeader are
// significant at the local leader only.
func (c *Intracomm) CreateIntercomm(peer *Comm, localLeader, remoteLeader, tag int) (*Intercomm, error) {
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	if localLeader < 0 || localLeader >= c.Size() {
		return nil, c.raise(errf(ErrRank, "local leader %d out of range", localLeader))
	}
	base, err := c.cl.AgreeContextBase()
	if err != nil {
		return nil, c.raise(mapErr(err))
	}

	// Leader exchange: context candidate + local group world ranks.
	remoteInfo, err := c.leaderBcast(localLeader, func() ([]byte, error) {
		if peer == nil {
			return nil, errf(ErrComm, "local leader needs a peer communicator")
		}
		mine := encodeInterInfo(base, c.env.proc.Rank(), c.group)
		sreq, err := peer.Isend(mine, 0, len(mine), BYTE, remoteLeader, tag)
		if err != nil {
			return nil, err
		}
		st, err := peer.Probe(remoteLeader, tag)
		if err != nil {
			return nil, err
		}
		remoteInfo := make([]byte, st.Bytes())
		if _, err := peer.Recv(remoteInfo, 0, len(remoteInfo), BYTE, remoteLeader, tag); err != nil {
			return nil, err
		}
		_, err = sreq.Wait()
		return remoteInfo, err
	})
	if err != nil {
		return nil, c.raise(err)
	}
	remoteBase, remoteLeaderWorld, remoteGroup, err := decodeInterInfo(remoteInfo)
	if err != nil {
		return nil, c.raise(mapErr(err))
	}

	final := max(base, remoteBase)
	if err := c.env.proc.CommitContexts(final); err != nil {
		return nil, c.raise(mapErr(err))
	}

	// The leaders' world ranks give a deterministic, symmetric
	// tie-break for Merge ordering.
	return c.newIntercomm(final, remoteGroup, c.group[localLeader] < remoteLeaderWorld, ".inter"), nil
}

// newIntercomm builds the intercommunicator of c's group and remote on
// the context pair at base. Point-to-point ranks address the remote
// group, so remote is the point-to-point context's table: the engine
// attributes peer deaths and routes revocations through it. The
// collective context's table lists remote after the local group, which
// is how a leader relay names a remote rank r — as len(group)+r, see
// relay — and how the engine fails its receive when r is lost.
func (c *Comm) newIntercomm(base int32, remote []int, low bool, suffix string) *Intercomm {
	ic := &Intercomm{low: low}
	c.env.buildComm(&ic.Comm, c.group, c.rank, base, c.name+suffix)
	ic.inter = true
	ic.remote = remote
	c.env.proc.RegisterGroupCtx(base, remote)
	c.env.proc.RegisterGroupCtx(base+1, append(append([]int(nil), c.group...), remote...))
	return ic
}

func encodeInterInfo(base int32, leaderWorld int, group []int) []byte {
	out := make([]byte, 0, 12+4*len(group))
	out = binary.LittleEndian.AppendUint32(out, uint32(base))
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(leaderWorld)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(group)))
	for _, w := range group {
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(w)))
	}
	return out
}

func decodeInterInfo(b []byte) (base int32, leaderWorld int, group []int, err error) {
	if len(b) < 12 {
		return 0, 0, nil, errf(ErrIntern, "short intercomm exchange payload")
	}
	base = int32(binary.LittleEndian.Uint32(b[0:]))
	leaderWorld = int(int32(binary.LittleEndian.Uint32(b[4:])))
	n := int(binary.LittleEndian.Uint32(b[8:]))
	if len(b) < 12+4*n {
		return 0, 0, nil, errf(ErrIntern, "truncated intercomm exchange payload")
	}
	group = make([]int, n)
	for i := range group {
		group[i] = int(int32(binary.LittleEndian.Uint32(b[12+4*i:])))
	}
	return base, leaderWorld, group, nil
}

// RemoteSize returns the size of the remote group
// (MPI_Comm_remote_size).
func (ic *Intercomm) RemoteSize() int { return len(ic.remote) }

// RemoteGroup returns the remote group (MPI_Comm_remote_group).
func (ic *Intercomm) RemoteGroup() *Group {
	return &Group{ranks: append([]int(nil), ic.remote...), me: ic.env.proc.Rank()}
}

// relay is a leader's part in a relay over the collective context: b
// goes to remote rank to (unless to < 0) and remote rank from's message
// comes back (unless from < 0). Each side's table lists the remote group
// after the local one, so a member is named len(group)+rank across it,
// and the engine fails the receive once from is lost. Both requests are
// waited for and recycled.
func (ic *Intercomm) relay(tag, to int, b []byte, from int) (in []byte, err error) {
	if to >= 0 {
		sreq, serr := ic.env.proc.Isend(ic.collCtx, len(ic.remote)+ic.rank, ic.remote[to], tag, b, core.ModeStandard, false)
		if serr != nil {
			return nil, mapErr(serr)
		}
		defer func() {
			if st := sreq.Wait(); err == nil {
				err = mapErr(st.Err)
			}
			sreq.Recycle()
		}()
	}
	if from >= 0 {
		rreq := ic.env.proc.Irecv(ic.collCtx, int32(len(ic.group)+from), int32(tag))
		err = mapErr(rreq.Wait().Err)
		in = rreq.TakePayload()
		rreq.Recycle()
	}
	return in, err
}

// interExchange performs a symmetric leader-to-leader exchange on the
// collective context, then broadcasts the remote payload, or the
// exchange's failure, within the local group.
func (ic *Intercomm) interExchange(mine []byte) ([]byte, error) {
	return ic.leaderBcast(0, func() ([]byte, error) { return ic.relay(tagInter, 0, mine, 0) })
}

// agreeContexts gives both sides one fresh context pair: each side's
// candidate base and flag cross in the leader exchange, and both commit
// the larger base. It returns that base and the remote side's flag.
func (ic *Intercomm) agreeContexts(flag byte) (int32, byte, error) {
	base, err := ic.cl.AgreeContextBase()
	if err != nil {
		return 0, 0, mapErr(err)
	}
	remote, err := ic.interExchange(binary.LittleEndian.AppendUint32([]byte{flag}, uint32(base)))
	switch {
	case err != nil:
		return 0, 0, err
	case len(remote) != 5:
		return 0, 0, errf(ErrIntern, "malformed context exchange payload")
	}
	final := max(base, int32(binary.LittleEndian.Uint32(remote[1:])))
	return final, remote[0], mapErr(ic.env.proc.CommitContexts(final))
}

// Merge joins the two sides into one intracommunicator (MPI_Intercomm_merge).
// The side passing high=false is ordered first; on ties the side with the
// lower leader world rank at creation comes first. Collective over both
// sides.
func (ic *Intercomm) Merge(high bool) (*Intracomm, error) {
	if err := ic.ok(); err != nil {
		return nil, ic.raise(err)
	}
	var flag byte
	if high {
		flag = 1
	}
	final, remoteFlag, err := ic.agreeContexts(flag)
	if err != nil {
		return nil, ic.raise(err)
	}
	iAmFirst := ic.low
	if flag != remoteFlag {
		iAmFirst = !high
	}
	var group []int
	if iAmFirst {
		group = append(append([]int(nil), ic.group...), ic.remote...)
	} else {
		group = append(append([]int(nil), ic.remote...), ic.group...)
	}
	myRank := slices.Index(group, ic.env.proc.Rank())
	if myRank < 0 {
		return nil, ic.raise(errf(ErrIntern, "merge: caller missing from union group"))
	}
	return newIntracomm(ic.env, group, myRank, final, ic.name+".merge"), nil
}

// Dup duplicates the intercommunicator with fresh contexts
// (MPI_Comm_dup on an intercommunicator). Collective over both sides.
func (ic *Intercomm) Dup() (*Intercomm, error) {
	if err := ic.ok(); err != nil {
		return nil, ic.raise(err)
	}
	final, _, err := ic.agreeContexts(0)
	if err != nil {
		return nil, ic.raise(err)
	}
	return ic.newIntercomm(final, ic.remote, ic.low, ".dup"), nil
}
