// mpirun launches an SPMD job of N OS processes — the paper's modes
// with real process isolation. It plays the role of WMPI/p4's startup
// daemon (§3.2): it provisions the fabric (a shared-memory segment for
// same-node ranks, a rendezvous coordinator for socket meshes, or both
// for hybrid runs), sets each worker's job geometry through the
// environment, and propagates exit status.
//
// Usage:
//
//	mpirun -np 4 ./myprog arg1 arg2             # shared memory (auto)
//	mpirun -np 4 -device tcp ./myprog           # socket mesh
//	mpirun -np 4 -nodes 2 ./myprog              # hybrid: 2 shm islands + TCP
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gompi/internal/launch"
	"gompi/internal/obs"
	"gompi/internal/transport"
	"gompi/internal/transport/shmipc"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpirun: "+format+"\n", args...)
	os.Exit(1)
}

// tailWriter tees a worker's stderr through to mpirun's own while
// keeping the last few KiB, so a rank that fails on its own terms can
// be reported together with its final complaint even after the job's
// interleaved output has scrolled past it.
type tailWriter struct {
	mu  sync.Mutex
	out io.Writer
	buf []byte
}

const tailKeep = 4 << 10

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailKeep {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailKeep:]...)
	}
	t.mu.Unlock()
	return t.out.Write(p)
}

func (t *tailWriter) tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(s, "\n", "\n    ")
}

// island is one group of ranks sharing a shared-memory segment.
type island struct {
	ranks []int
	path  string
}

// splitIslands partitions np ranks into nodes contiguous blocks, the
// fake multi-node topology used to exercise hybrid routing on one
// machine.
func splitIslands(np, nodes int) []island {
	out := make([]island, nodes)
	for i := 0; i < nodes; i++ {
		lo, hi := i*np/nodes, (i+1)*np/nodes
		for r := lo; r < hi; r++ {
			out[i].ranks = append(out[i].ranks, r)
		}
	}
	return out
}

func main() {
	np := flag.Int("np", 2, "number of processes")
	eager := flag.Int("eager", 0, "eager/rendezvous threshold in bytes (0 = default)")
	device := flag.String("device", "auto", "transport medium: auto, shm or tcp")
	nodes := flag.Int("nodes", 1, "emulated node count (>1 splits ranks into shm islands bridged by TCP)")
	trace := flag.Bool("trace", false, "arm every rank's flight recorder and merge the rings into a Chrome trace")
	traceOut := flag.String("trace-out", "gompi-trace.json", "merged Chrome trace_event output path (with -trace)")
	traceSummary := flag.Bool("trace-summary", false, "print the per-operation count/bytes/p50/p99 table after the run (with -trace)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mpirun [-np N] [-device auto|shm|tcp] [-nodes N] [-eager BYTES] prog [args...]\n")
		fmt.Fprintf(os.Stderr, "a faulty: prefix on -device (e.g. faulty:shm) injects the GOMPI_FAULT plan into the workers\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *np < 1 {
		fatalf("-np must be at least 1")
	}
	if *nodes < 1 || *nodes > *np {
		fatalf("-nodes must be in [1,%d]", *np)
	}
	prog := flag.Arg(0)
	args := flag.Args()[1:]

	// Tracing: workers dump their rings into a private staging directory
	// on Finalize; mpirun merges them after the job drains.
	traceDir := ""
	if *trace {
		d, err := os.MkdirTemp("", "gompi-trace-")
		if err != nil {
			fatalf("creating trace directory: %v", err)
		}
		traceDir = d
		defer os.RemoveAll(traceDir)
	}

	// Crash-recovery sweep: segments whose creating mpirun died are
	// dead weight in /dev/shm; remove them before provisioning ours.
	if removed, err := shmipc.CleanupStale(shmipc.DefaultDir(), time.Minute); err == nil && len(removed) > 0 {
		fmt.Fprintf(os.Stderr, "mpirun: removed %d stale shm segment(s)\n", len(removed))
	}

	// Decide the fabric. workerDev is what the workers are told to
	// construct (launch.NewDevice). A faulty: prefix is the
	// chaos-testing decorator: provisioning decisions are made on the
	// underlying fabric name, and the prefix is re-applied to the
	// worker-side device so each endpoint is wrapped with the
	// GOMPI_FAULT plan.
	fabric, injectFaults := strings.CutPrefix(*device, launch.FaultyPrefix)
	var islands []island
	workerDev := ""
	needCoord := false
	switch fabric {
	case "tcp":
		workerDev = "tcp"
		needCoord = true
	case "shm":
		if *nodes > 1 {
			fatalf("-device shm is single-node; use -device auto with -nodes for hybrid runs")
		}
		workerDev = "shm"
		islands = splitIslands(*np, 1)
	case "auto":
		if *nodes == 1 {
			workerDev = "shm"
			islands = splitIslands(*np, 1)
		} else {
			workerDev = "hybrid"
			islands = splitIslands(*np, *nodes)
			needCoord = true
		}
	default:
		fatalf("unknown -device %q (want auto, shm or tcp, optionally faulty:-prefixed)", *device)
	}

	// Provision the segments. Cleanup must run on every exit path,
	// including signals.
	var cleanupOnce sync.Once
	cleanup := func() {
		cleanupOnce.Do(func() {
			for _, isl := range islands {
				if isl.path != "" {
					os.Remove(isl.path)
				}
			}
		})
	}
	for i := range islands {
		path := filepath.Join(shmipc.DefaultDir(),
			fmt.Sprintf("%sjob%d-%d.seg", shmipc.SegPrefix, os.Getpid(), i))
		if _, err := shmipc.Create(path, islands[i].ranks, shmipc.Config{}); err != nil {
			if *device == "auto" && *nodes == 1 {
				// No shared memory here; sockets still work.
				fmt.Fprintf(os.Stderr, "mpirun: shared memory unavailable (%v), falling back to tcp\n", err)
				islands = nil
				workerDev = "tcp"
				needCoord = true
				break
			}
			cleanup()
			fatalf("creating shm segment: %v", err)
		}
		islands[i].path = path
	}
	defer cleanup()

	coordAddr := ""
	coordErr := make(chan error, 1)
	if needCoord {
		ln, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			cleanup()
			fatalf("coordinator listener: %v", err)
		}
		defer ln.Close()
		coordAddr = ln.Addr()
		go func() { coordErr <- launch.Coordinate(ln, *np) }()
	} else {
		coordErr <- nil
	}

	// Per-rank environment: geometry plus the fabric handles.
	islandOf := make(map[int]*island)
	for i := range islands {
		for _, r := range islands[i].ranks {
			islandOf[r] = &islands[i]
		}
	}
	rankEnv := func(r int) []string {
		dev := workerDev
		if injectFaults {
			dev = launch.FaultyPrefix + dev
		}
		env := append(os.Environ(),
			launch.EnvRank+"="+strconv.Itoa(r),
			launch.EnvSize+"="+strconv.Itoa(*np),
			launch.EnvEager+"="+strconv.Itoa(*eager),
			launch.EnvDevice+"="+dev,
		)
		if coordAddr != "" {
			env = append(env, launch.EnvCoord+"="+coordAddr)
		}
		if traceDir != "" {
			env = append(env, obs.EnvTrace+"=1", obs.EnvTraceDir+"="+traceDir)
		}
		if isl := islandOf[r]; isl != nil {
			ranks := make([]string, len(isl.ranks))
			for i, w := range isl.ranks {
				ranks[i] = strconv.Itoa(w)
			}
			env = append(env,
				launch.EnvShmSeg+"="+isl.path,
				launch.EnvShmRanks+"="+strings.Join(ranks, ","))
		}
		return env
	}

	// Process accounting covers both the launch-time ranks and any
	// worlds spawned later through the control socket: one list for
	// teardown, one live counter for the reaper, one death channel.
	type exitEvent struct {
		name string
		tail *tailWriter
		err  error
	}
	var procMu sync.Mutex
	var procs []*exec.Cmd
	live := 0
	deaths := make(chan exitEvent, 64)
	killAll := func() {
		procMu.Lock()
		defer procMu.Unlock()
		for _, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Kill() //nolint:errcheck // best-effort teardown
			}
		}
	}
	watch := func(name string, tw *tailWriter, cmd *exec.Cmd) {
		go func() { deaths <- exitEvent{name, tw, cmd.Wait()} }()
	}

	// Spawn-control service: MPI_Comm_spawn inside a worker sends its
	// request here, so dynamically created ranks become mpirun's own
	// children — same killAll, same reaper, same stderr tails and exit
	// propagation as the launch-time ranks. The live count is raised
	// before the reply is sent: the requester is itself alive until the
	// reply lands, so the reaper can never observe live==0 with a spawn
	// still in flight.
	ctrlLn, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		cleanup()
		fatalf("spawn control listener: %v", err)
	}
	defer ctrlLn.Close()
	ctrlAddr := ctrlLn.Addr()
	spawnSeq := 0
	go func() {
		for {
			conn, err := ctrlLn.Accept()
			if err != nil {
				return
			}
			go launch.ServeSpawnConn(conn, func(req launch.SpawnRequest) error {
				procMu.Lock()
				spawnSeq++
				id := spawnSeq
				procMu.Unlock()
				tws := make([]*tailWriter, req.N)
				// The spawned world runs at the job's eager limit: one
				// value per job, so a merged or connected world agrees.
				extra := []string{launch.EnvControl + "=" + ctrlAddr, launch.EnvEager + "=" + strconv.Itoa(*eager)}
				if traceDir != "" {
					// Spawned worlds trace too, into a world-private
					// subdirectory: their ranks restart at 0, so dumping
					// next to the launch world's files would collide.
					sub := filepath.Join(traceDir, fmt.Sprintf("spawn%d", id))
					if err := os.Mkdir(sub, 0o755); err == nil {
						extra = append(extra, obs.EnvTrace+"=1", obs.EnvTraceDir+"="+sub)
					}
				}
				h, err := launch.SpawnLocal(launch.SpawnJob{
					Prog: req.Prog, Args: req.Args, N: req.N,
					ParentPort: req.ParentPort, Dir: req.Dir,
					ExtraEnv: extra,
					Stderr: func(rank int) io.Writer {
						tws[rank] = &tailWriter{out: os.Stderr}
						return tws[rank]
					},
				})
				if err != nil {
					return err
				}
				procMu.Lock()
				procs = append(procs, h.Cmds...)
				live += len(h.Cmds)
				procMu.Unlock()
				for r, cmd := range h.Cmds {
					watch(fmt.Sprintf("spawn%d rank %d", id, r), tws[r], cmd)
				}
				fmt.Fprintf(os.Stderr, "mpirun: spawned %d rank(s) of %s (world spawn%d)\n",
					req.N, req.Prog, id)
				return nil
			})
		}
	}()

	// Abnormal-exit path: tear workers down and remove the segments so
	// an interrupted job leaks nothing.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "mpirun: %v: killing %d ranks\n", s, *np)
		killAll()
		cleanup()
		os.Exit(130)
	}()

	for r := 0; r < *np; r++ {
		cmd := exec.Command(prog, args...)
		tw := &tailWriter{out: os.Stderr}
		cmd.Stdout = os.Stdout
		cmd.Stderr = tw
		cmd.Env = append(rankEnv(r), launch.EnvControl+"="+ctrlAddr)
		procMu.Lock()
		startErr := cmd.Start()
		if startErr == nil {
			procs = append(procs, cmd)
			live++
		}
		procMu.Unlock()
		if startErr != nil {
			fmt.Fprintf(os.Stderr, "mpirun: starting rank %d: %v\n", r, startErr)
			killAll()
			cleanup()
			os.Exit(1)
		}
		watch(fmt.Sprintf("rank %d", r), tw, cmd)
	}

	// Reap children as they die, not in rank order: with fault-tolerant
	// workers a killed rank exits minutes before its survivors, and its
	// zombie should be collected — and its identity reported — the
	// moment it happens. Each watch goroutine Waits (reaping
	// immediately); the channel serializes the death notices. The loop
	// runs until the live count — launch ranks plus any spawned worlds —
	// drains to zero.
	exit := 0
	firstFailed := ""
	for {
		procMu.Lock()
		n := live
		procMu.Unlock()
		if n == 0 {
			break
		}
		ev := <-deaths
		procMu.Lock()
		live--
		procMu.Unlock()
		if ev.err == nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "mpirun: %s: %v\n", ev.name, ev.err)
		// Propagate the failed rank's own status when it has one:
		// 128+signal for a killed child, its exit code otherwise. A rank
		// killed by a signal says so in its wait status; one that failed
		// on its own terms explained itself on stderr — replay its last
		// words next to the verdict.
		code := 1
		var ee *exec.ExitError
		if errors.As(ev.err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
				code = 128 + int(ws.Signal())
			} else if c := ee.ExitCode(); c > 0 {
				code = c
			}
		}
		// Replay the dying rank's last words for signal deaths too: a
		// SIGKILLed chaos-run rank usually logged what it was doing
		// right before the injected fault took it down.
		if tail := strings.TrimSpace(ev.tail.tail()); tail != "" {
			fmt.Fprintf(os.Stderr, "mpirun: %s stderr tail:\n%s\n", ev.name, indent(tail))
		}
		if firstFailed == "" {
			firstFailed = ev.name
			exit = code
		}
	}
	if firstFailed != "" {
		fmt.Fprintf(os.Stderr, "mpirun: job failed: first failed %s (exit status %d)\n", firstFailed, exit)
	}
	if err := <-coordErr; err != nil && exit == 0 {
		fmt.Fprintf(os.Stderr, "mpirun: %v\n", err)
		exit = 1
	}
	if traceDir != "" {
		if err := mergeTraces(traceDir, *traceOut, *traceSummary); err != nil {
			fmt.Fprintf(os.Stderr, "mpirun: %v\n", err)
			if exit == 0 {
				exit = 1
			}
		}
	}
	cleanup()
	os.Exit(exit)
}

// mergeTraces folds the per-rank flight-recorder dumps under dir — the
// launch world's, plus any spawned worlds' subdirectories — into one
// clock-aligned Chrome trace_event JSON at out. Spawned worlds' ranks
// are offset by 1000 per world so their rows don't collide with the
// launch world's.
func mergeTraces(dir, out string, summary bool) error {
	files, err := obs.ReadTraceDir(dir)
	if err != nil {
		return fmt.Errorf("reading traces: %v", err)
	}
	for id := 1; ; id++ {
		sub := filepath.Join(dir, fmt.Sprintf("spawn%d", id))
		sfs, serr := obs.ReadTraceDir(sub)
		if serr != nil || len(sfs) == 0 {
			break
		}
		for _, tf := range sfs {
			tf.Rank += 1000 * id
		}
		files = append(files, sfs...)
	}
	if len(files) == 0 {
		return fmt.Errorf("no trace dumps found (did the ranks reach Finalize?)")
	}
	f, err := os.Create(out)
	if err != nil {
		return fmt.Errorf("creating %s: %v", out, err)
	}
	if err := obs.WriteChrome(f, files); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %v", out, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %v", out, err)
	}
	events := 0
	for _, tf := range files {
		events += len(tf.Events)
	}
	fmt.Fprintf(os.Stderr, "mpirun: merged trace of %d rank(s), %d event(s) -> %s (load in chrome://tracing or https://ui.perfetto.dev)\n",
		len(files), events, out)
	if summary {
		fmt.Fprintf(os.Stderr, "mpirun: trace summary:\n")
		if err := obs.WriteSummary(os.Stderr, files); err != nil {
			return err
		}
	}
	return nil
}
