package mpi

import (
	"encoding/binary"

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

// tagInter is the reserved internal tag used on the collective context
// for leader-to-leader exchanges; it cannot collide with the collective
// algorithms' own tags.
const tagInter = 0x7fe0

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
		return nil, c.raise(mapEngineErr(err))
	}

	// Leader exchange: context candidate + local group world ranks.
	var remoteInfo []byte
	if c.rank == localLeader {
		if peer == nil {
			return nil, c.raise(errf(ErrComm, "local leader needs a peer communicator"))
		}
		mine := encodeInterInfo(base, c.env.proc.Rank(), c.group)
		sreq, err := peer.Isend(mine, 0, len(mine), BYTE, remoteLeader, tag)
		if err != nil {
			return nil, c.raise(err)
		}
		st, err := peer.Probe(remoteLeader, tag)
		if err != nil {
			return nil, c.raise(err)
		}
		remoteInfo = make([]byte, st.Bytes())
		if _, err := peer.Recv(remoteInfo, 0, len(remoteInfo), BYTE, remoteLeader, tag); err != nil {
			return nil, c.raise(err)
		}
		if _, err := sreq.Wait(); err != nil {
			return nil, c.raise(err)
		}
	}
	remoteInfo, err = c.cl.Bcast(localLeader, remoteInfo)
	if err != nil {
		return nil, c.raise(errf(ErrIntern, "%v", err))
	}
	remoteBase, remoteLeaderWorld, remoteGroup, err := decodeInterInfo(remoteInfo)
	if err != nil {
		return nil, c.raise(errf(ErrIntern, "%v", err))
	}

	final := base
	if remoteBase > final {
		final = remoteBase
	}
	if err := c.env.proc.CommitContexts(final); err != nil {
		return nil, c.raise(mapEngineErr(err))
	}

	// The leaders' world ranks give a deterministic, symmetric
	// tie-break for Merge ordering.
	localLeaderWorld := c.group[localLeader]
	ic := &Intercomm{low: localLeaderWorld < remoteLeaderWorld}
	c.env.buildComm(&ic.Comm, c.group, c.rank, final, c.name+".inter")
	ic.inter = true
	ic.remote = remoteGroup
	// Point-to-point ranks on an intercommunicator address the remote
	// group: register it on the point-to-point context so the engine
	// attributes peer deaths and routes revocations through it.
	c.env.proc.RegisterGroupCtx(final, remoteGroup)
	return ic, nil
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

// interExchange performs a symmetric leader-to-leader exchange on the
// reserved collective context, then broadcasts the remote payload within
// the local group.
func (ic *Intercomm) interExchange(mine []byte) ([]byte, error) {
	var remote []byte
	if ic.rank == 0 {
		sreq, err := ic.env.proc.Isend(ic.collCtx, ic.rank, ic.remote[0], tagInter, mine, core.ModeStandard, false)
		if err != nil {
			return nil, err
		}
		rreq := ic.env.proc.Irecv(ic.collCtx, 0, tagInter)
		rreq.Wait()
		sreq.Wait()
		remote = rreq.Payload
	}
	return ic.cl.Bcast(0, remote)
}

// Merge joins the two sides into one intracommunicator (MPI_Intercomm_merge).
// The side passing high=false is ordered first; on ties the side with the
// lower leader world rank at creation comes first. Collective over both
// sides.
func (ic *Intercomm) Merge(high bool) (*Intracomm, error) {
	if err := ic.ok(); err != nil {
		return nil, ic.raise(err)
	}
	base, err := ic.cl.AgreeContextBase()
	if err != nil {
		return nil, ic.raise(mapEngineErr(err))
	}
	mine := make([]byte, 5)
	binary.LittleEndian.PutUint32(mine, uint32(base))
	if high {
		mine[4] = 1
	}
	remote, err := ic.interExchange(mine)
	if err != nil {
		return nil, ic.raise(errf(ErrIntern, "%v", err))
	}
	if len(remote) < 5 {
		return nil, ic.raise(errf(ErrIntern, "short merge exchange payload"))
	}
	remoteBase := int32(binary.LittleEndian.Uint32(remote))
	remoteHigh := remote[4] == 1

	final := base
	if remoteBase > final {
		final = remoteBase
	}
	if err := ic.env.proc.CommitContexts(final); err != nil {
		return nil, ic.raise(mapEngineErr(err))
	}

	iAmFirst := ic.low
	if high != remoteHigh {
		iAmFirst = !high
	}
	var group []int
	if iAmFirst {
		group = append(append([]int(nil), ic.group...), ic.remote...)
	} else {
		group = append(append([]int(nil), ic.remote...), ic.group...)
	}
	me := ic.env.proc.Rank()
	myRank := -1
	for i, w := range group {
		if w == me {
			myRank = i
		}
	}
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
	base, err := ic.cl.AgreeContextBase()
	if err != nil {
		return nil, ic.raise(mapEngineErr(err))
	}
	mine := make([]byte, 4)
	binary.LittleEndian.PutUint32(mine, uint32(base))
	remote, err := ic.interExchange(mine)
	if err != nil {
		return nil, ic.raise(errf(ErrIntern, "%v", err))
	}
	if len(remote) < 4 {
		return nil, ic.raise(errf(ErrIntern, "short dup exchange payload"))
	}
	remoteBase := int32(binary.LittleEndian.Uint32(remote))
	final := base
	if remoteBase > final {
		final = remoteBase
	}
	if err := ic.env.proc.CommitContexts(final); err != nil {
		return nil, ic.raise(mapEngineErr(err))
	}

	out := &Intercomm{low: ic.low}
	ic.env.buildComm(&out.Comm, ic.group, ic.rank, final, ic.name+".dup")
	out.inter = true
	out.remote = ic.remote
	ic.env.proc.RegisterGroupCtx(final, ic.remote)
	return out, nil
}
