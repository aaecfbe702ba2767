package mpi

// Dynamic process management (MPI-2 chapter 5): ports, Connect/Accept,
// Spawn and the parent intercommunicator. The heavy lifting — the
// rendezvous listener, the leader handshake and the pairwise link
// admission — lives in internal/dynproc; this file is the binding:
// argument checking, the collective choreography that gets every member
// of a world through a join together, and the MPI error classes
// (ErrPort, ErrSpawn).
//
// A join is collective over the local communicator:
//
//  1. every member starts its rendezvous listener and contributes its
//     {GUID, address} to a Gather at the root;
//  2. the root runs the out-of-band leader handshake (dialing the port
//     on Connect, collecting a parked dial-in on Accept), exchanging
//     member tables and context-id candidates;
//  3. the outcome — an admission ticket or an error — reaches the local
//     group through leaderBcast, the binding's one root-decision path,
//     so all members succeed together or fail with the root's class and
//     message;
//  4. every member admits the remote members into its endpoint fabric
//     (accept side parks inbound dials, connect side dials out) and
//     commits max(local, remote) as the new communicator's context
//     base, so the pair collides with neither world's live tag space.
//
// Fault-tolerance interplay: a Connect or Accept on a revoked
// communicator fails fast with ErrRevoked — the ULFM repair loop
// (Shrink, then Spawn replacements, then Merge) is the supported way to
// grow a damaged world back.

import (
	"bytes"
	"encoding/gob"
	"os"
	"strconv"
	"time"

	"gompi/internal/dynproc"
	"gompi/internal/launch"
	"gompi/internal/obs"
)

// dynTimeout bounds the out-of-band half of a join: the leader
// handshake, and every pairwise dial-in behind Admit. Spawned children
// have to exec and initialize before they can connect back, so the
// budget is generous; it exists so a lost peer turns into ErrPort
// instead of a hang.
var dynTimeout = 120 * time.Second

// OpenPort opens a rendezvous port on this process (MPI_Open_port) and
// returns its name — hand it out of band (or via Spawn's environment)
// to a world that should Connect. Port names look like
//
//	gompi-port://127.0.0.1:45123/ep0/k9f3a...
//
// and encode the listener address, the world epoch at open time (a
// Connect into a world that has since grown is refused as stale) and a
// random capability key.
func (e *Env) OpenPort() (string, error) {
	if e.finalized.Load() {
		return "", errf(ErrPort, "MPI already finalized")
	}
	p, err := e.fab.OpenPort()
	if err != nil {
		return "", errf(ErrPort, "open port: %v", err)
	}
	e.portsMu.Lock()
	if e.ports == nil {
		e.ports = map[string]*dynproc.Port{}
	}
	e.ports[p.Name()] = p
	e.portsMu.Unlock()
	return p.Name(), nil
}

// ClosePort closes a port opened by OpenPort (MPI_Close_port). Pending
// and future connection attempts on it are refused.
func (e *Env) ClosePort(name string) error {
	e.portsMu.Lock()
	p := e.ports[name]
	delete(e.ports, name)
	e.portsMu.Unlock()
	if p == nil {
		return errf(ErrPort, "unknown or already closed port %q", name)
	}
	p.Close()
	return nil
}

func (e *Env) lookupPort(name string) *dynproc.Port {
	e.portsMu.Lock()
	defer e.portsMu.Unlock()
	return e.ports[name]
}

func gobEnc(v any) []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		panic(err) // static types; encoding cannot fail at runtime
	}
	return b.Bytes()
}

func gobDec(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// Accept waits for a remote world to connect to a port this process
// group's root opened, and returns the intercommunicator joining the
// two worlds (MPI_Comm_accept). Collective over the communicator;
// portName is significant at the root only.
func (c *Intracomm) Accept(portName string, root int) (*Intercomm, error) {
	return c.joinWorld(portName, root, true)
}

// Connect connects this world to a port opened by another world's
// root and returns the intercommunicator joining the two
// (MPI_Comm_connect). Collective over the communicator; portName is
// significant at the root only. Connect on a revoked communicator
// fails fast with ErrRevoked.
func (c *Intracomm) Connect(portName string, root int) (*Intercomm, error) {
	return c.joinWorld(portName, root, false)
}

func (c *Intracomm) joinWorld(portName string, root int, acceptSide bool) (*Intercomm, error) {
	verb := "connect"
	if acceptSide {
		verb = "accept"
	}
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	if err := c.checkRoot(root); err != nil {
		return nil, c.raise(err)
	}
	if c.Revoked() {
		return nil, c.raise(errf(ErrRevoked, "cannot %s on revoked communicator %q", verb, c.name))
	}
	fab := c.env.fab
	addr, err := fab.EnsureListener()
	if err != nil {
		// The local listener failing is a broken environment; peers
		// would hang in the Gather below, so fail loudly here.
		return nil, c.raise(errf(ErrPort, "%s: %v", verb, err))
	}
	me := dynproc.Member{GUID: fab.GUID(), Addr: addr}

	base, err := c.cl.AgreeContextBase()
	if err != nil {
		return nil, c.raise(mapErr(err))
	}
	members, err := c.cl.Gather(root, gobEnc(me))
	if err != nil {
		return nil, c.raise(mapErr(err))
	}

	// The root runs the out-of-band leader handshake; every member gets
	// its admission ticket or its error.
	raw, err := c.leaderBcast(root, func() ([]byte, error) {
		tkt, err := c.leaderHandshake(portName, verb, acceptSide, members, base)
		if err != nil {
			return nil, err
		}
		return gobEnc(tkt), nil
	})
	if err != nil {
		return nil, c.raise(err)
	}
	var tkt dynproc.Ticket
	if err := gobDec(raw, &tkt); err != nil {
		return nil, c.raise(errf(ErrIntern, "%s: decoding the admission ticket: %v", verb, err))
	}

	// Every member links to every remote member.
	worlds, err := fab.Admit(&tkt, dynTimeout)
	if err != nil {
		return nil, c.raise(errf(ErrPort, "%s: %v", verb, err))
	}

	final := max(base, tkt.RemoteCtxCand)
	if err := c.env.proc.CommitContexts(final); err != nil {
		return nil, c.raise(mapErr(err))
	}

	return c.newIntercomm(final, worlds, acceptSide, "."+verb), nil
}

// leaderHandshake runs the root's out-of-band exchange. Its errors
// carry the verb and the class every member of the join reports.
func (c *Intracomm) leaderHandshake(portName, verb string, acceptSide bool, members [][]byte, base int32) (*dynproc.Ticket, error) {
	local := make([]dynproc.Member, len(members))
	for i, raw := range members {
		if err := gobDec(raw, &local[i]); err != nil {
			return nil, errf(ErrIntern, "%s: decoding member table: %v", verb, err)
		}
	}
	var tkt *dynproc.Ticket
	var err error
	if acceptSide {
		p := c.env.lookupPort(portName)
		if p == nil {
			return nil, errf(ErrPort, "%s: unknown or closed port %q", verb, portName)
		}
		tkt, err = c.env.fab.AcceptLeader(p, local, base, c.env.proc.EagerLimit(), dynTimeout)
	} else {
		tkt, err = c.env.fab.DialLeader(portName, local, base, c.env.proc.EagerLimit(), dynTimeout)
	}
	if err != nil {
		return nil, errf(ErrPort, "%s: %v", verb, err)
	}
	return tkt, nil
}

// Spawn starts maxprocs new processes running command with args and
// returns the intercommunicator to their world (MPI_Comm_spawn; the
// children find the parent side via Env.Parent). Collective over the
// communicator; rank 0 is the root. Under mpirun the children are
// provisioned through the launcher's spawn-control socket and share its
// reap-and-report machinery; a standalone world forks them directly.
// The children always form a TCP world of their own and link back to
// every parent rank during the join.
func (c *Intracomm) Spawn(command string, args []string, maxprocs int) (*Intercomm, error) {
	defer c.env.proc.Recorder().Span(obs.EvSpawn, int64(maxprocs))(0)
	if err := c.ok(); err != nil {
		return nil, c.raise(err)
	}
	if c.Revoked() {
		return nil, c.raise(errf(ErrRevoked, "cannot spawn on revoked communicator %q", c.name))
	}
	const root = 0
	port, err := c.leaderBcast(root, func() ([]byte, error) {
		if maxprocs < 1 {
			return nil, errf(ErrSpawn, "spawn %q: maxprocs must be at least 1", command)
		}
		port, err := c.env.OpenPort()
		if err != nil {
			return nil, errf(ClassOf(err), "spawn %q: %v", command, err)
		}
		if err := provisionSpawn(command, args, maxprocs, port, c.env.proc.EagerLimit()); err != nil {
			c.env.ClosePort(port)
			return nil, errf(ErrSpawn, "spawn %q: %v", command, err)
		}
		return []byte(port), nil
	})
	if err != nil {
		return nil, c.raise(err)
	}
	ic, jerr := c.joinWorld(string(port), root, true)
	if c.rank == root {
		c.env.ClosePort(string(port))
	}
	if jerr != nil {
		return nil, jerr
	}
	ic.SetName(c.name + ".spawn")
	return ic, nil
}

// provisionSpawn starts the child processes: through the launcher's
// control socket when running under mpirun, directly otherwise. Either
// way the children run at the job's eager limit: mpirun passes its own
// -eager, and a direct spawn passes the caller's eager.
func provisionSpawn(command string, args []string, n int, parentPort string, eager int) error {
	if ctrl := os.Getenv(launch.EnvControl); ctrl != "" {
		dir, _ := os.Getwd()
		return launch.RequestSpawn(ctrl, launch.SpawnRequest{
			Prog: command, Args: args, N: n, ParentPort: parentPort, Dir: dir,
		})
	}
	h, err := launch.SpawnLocal(launch.SpawnJob{
		Prog: command, Args: args, N: n, ParentPort: parentPort,
		ExtraEnv: []string{launch.EnvEager + "=" + strconv.Itoa(eager)},
	})
	if err != nil {
		return err
	}
	// Reap in the background; a child that dies before dialing in
	// surfaces as an ErrPort timeout in the join.
	go h.Wait()
	return nil
}

// Parent returns the intercommunicator to the world that spawned this
// process (MPI_Comm_get_parent), connecting through the port the parent
// exported on the first call, or (nil, nil) when the process was not
// spawned. Collective over the child world on first call.
func (e *Env) Parent() (*Intercomm, error) {
	port := os.Getenv(launch.EnvParentPort)
	if port == "" {
		return nil, nil
	}
	e.parentSet.Do(func() {
		e.parent, e.parentErr = e.world.Connect(port, 0)
		if e.parent != nil {
			e.parent.SetName("MPI.COMM_PARENT")
		}
	})
	return e.parent, e.parentErr
}
