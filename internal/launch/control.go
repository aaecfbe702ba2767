package launch

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"gompi/internal/transport"
)

// Dynamic-process plumbing: MPI_Comm_spawn needs someone to actually
// fork processes. Under mpirun that someone is the launcher itself — it
// exports a control socket (EnvControl) that a rank's Spawn call sends
// a SpawnRequest to, so the children become the launcher's children and
// share its reap-and-report machinery. A standalone process (singleton
// init, tests) falls back to SpawnLocal and provisions the children
// itself.
const (
	// EnvControl is the address of the launcher's spawn-control socket.
	EnvControl = "GOMPI_CONTROL"
	// EnvParentPort carries the parent world's rendezvous port name to
	// spawned children; mpi.Env.Parent connects through it.
	EnvParentPort = "GOMPI_PARENT_PORT"
)

// SpawnRequest asks the launcher to provision a child world.
type SpawnRequest struct {
	// Prog and Args are the child command line (Args excludes the
	// program name, as with exec.Command).
	Prog string
	Args []string
	// N is the child world size.
	N int
	// ParentPort is the parent world's open port; every child gets it
	// in EnvParentPort.
	ParentPort string
	// Dir is the working directory for the children; empty inherits
	// the launcher's.
	Dir string
}

type spawnReply struct{ Err string }

// RequestSpawn sends one spawn request to a launcher's control socket
// and waits for its verdict. The reply arrives after the children are
// started (not after they initialize), so a nil error means the
// processes exist and the parent can sit in Accept waiting for them.
func RequestSpawn(ctrlAddr string, req SpawnRequest) error {
	c, err := transport.Dial(ctrlAddr, 30*time.Second)
	if err != nil {
		return fmt.Errorf("launch: dialing spawn control %s: %w", ctrlAddr, err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(2 * time.Minute))
	if err := gob.NewEncoder(c).Encode(req); err != nil {
		return fmt.Errorf("launch: sending spawn request: %w", err)
	}
	var rep spawnReply
	if err := gob.NewDecoder(c).Decode(&rep); err != nil {
		return fmt.Errorf("launch: waiting for spawn reply: %w", err)
	}
	if rep.Err != "" {
		return fmt.Errorf("launch: spawn refused: %s", rep.Err)
	}
	return nil
}

// ServeSpawnConn handles one control-socket connection on the launcher
// side: decode the request, hand it to start (which should leave the
// children running), reply with the verdict. start must not return
// before the children count toward the launcher's reap accounting — the
// requester may exit the moment the reply lands.
func ServeSpawnConn(c transport.Conn, start func(SpawnRequest) error) {
	defer c.Close()
	c.SetDeadline(time.Now().Add(2 * time.Minute))
	var req SpawnRequest
	if err := gob.NewDecoder(c).Decode(&req); err != nil {
		return
	}
	var rep spawnReply
	if err := start(req); err != nil {
		rep.Err = err.Error()
	}
	gob.NewEncoder(c).Encode(&rep)
}

// SpawnJob describes a child world for SpawnLocal.
type SpawnJob struct {
	Prog string
	Args []string
	N    int
	// ParentPort, when non-empty, is exported to the children as
	// EnvParentPort.
	ParentPort string
	// Dir is the children's working directory; empty inherits.
	Dir string
	// ExtraEnv entries are appended after the geometry variables (so
	// they can extend, e.g. re-export a control socket).
	ExtraEnv []string
	// Stdout receives child stdout; nil inherits this process's.
	Stdout io.Writer
	// Stderr builds the per-rank stderr sink; nil inherits.
	Stderr func(rank int) io.Writer
}

// SpawnHandle owns a locally spawned child world.
type SpawnHandle struct {
	// Cmds are the started children, by child-world rank. A caller that
	// waits on them directly (the launcher's reaper) must not also call
	// Wait.
	Cmds []*exec.Cmd

	coordErr chan error
}

// Wait reaps every child and returns the first failure.
func (h *SpawnHandle) Wait() error {
	var first error
	for _, cmd := range h.Cmds {
		if err := cmd.Wait(); err != nil && first == nil {
			first = err
		}
	}
	if err := <-h.coordErr; err != nil && first == nil {
		first = err
	}
	return first
}

// scrubbedEnv is the current environment minus every GOMPI_* variable:
// a spawned child must see its own world geometry, not the parent's.
func scrubbedEnv() []string {
	env := os.Environ()
	out := env[:0]
	for _, kv := range env {
		if !strings.HasPrefix(kv, "GOMPI_") {
			out = append(out, kv)
		}
	}
	return out
}

// SpawnLocal provisions a child world as direct children of this
// process: its own rendezvous coordinator (children always build a TCP
// mesh — a shared-memory segment cannot be grown after launch), fresh
// geometry variables, the parent port. Children that fail to start are
// killed as a group and the error returned.
func SpawnLocal(job SpawnJob) (*SpawnHandle, error) {
	if job.N < 1 {
		return nil, fmt.Errorf("launch: spawn of %d processes", job.N)
	}
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("launch: spawn coordinator listener: %w", err)
	}
	coordErr := make(chan error, 1)
	go func() {
		coordErr <- Coordinate(ln, job.N)
		ln.Close()
	}()
	base := scrubbedEnv()
	h := &SpawnHandle{coordErr: coordErr}
	for r := 0; r < job.N; r++ {
		cmd := exec.Command(job.Prog, job.Args...)
		cmd.Dir = job.Dir
		env := append(append([]string(nil), base...),
			fmt.Sprintf("%s=%d", EnvRank, r),
			fmt.Sprintf("%s=%d", EnvSize, job.N),
			fmt.Sprintf("%s=%s", EnvCoord, ln.Addr()),
			fmt.Sprintf("%s=tcp", EnvDevice),
		)
		if job.ParentPort != "" {
			env = append(env, fmt.Sprintf("%s=%s", EnvParentPort, job.ParentPort))
		}
		cmd.Env = append(env, job.ExtraEnv...)
		if job.Stdout != nil {
			cmd.Stdout = job.Stdout
		} else {
			cmd.Stdout = os.Stdout
		}
		if job.Stderr != nil {
			cmd.Stderr = job.Stderr(r)
		} else {
			cmd.Stderr = os.Stderr
		}
		if err := cmd.Start(); err != nil {
			for _, c := range h.Cmds {
				c.Process.Kill()
				c.Wait()
			}
			ln.Close()
			return nil, fmt.Errorf("launch: starting spawned rank %d (%s): %w", r, job.Prog, err)
		}
		h.Cmds = append(h.Cmds, cmd)
	}
	return h, nil
}
