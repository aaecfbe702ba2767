package mpi_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"gompi/internal/obs"
	"gompi/mpi"
)

// spawnHelperEnv re-enters the test binary as a spawned MPI child: the
// variable must not carry the GOMPI_ prefix, or the launcher's
// environment scrubbing would strip it before the child starts.
const spawnHelperEnv = "MPI_TEST_SPAWN_HELPER"

func TestMain(m *testing.M) {
	switch os.Getenv(spawnHelperEnv) {
	case "1":
		os.Exit(spawnHelperMain())
	case "eager":
		os.Exit(eagerHelperMain())
	}
	os.Exit(m.Run())
}

// eagerHelperMain is the child side of TestSpawnInheritsEagerLimit: it
// sends its core.eager_limit to the parent world's rank 0.
func eagerHelperMain() int {
	err := mpi.Main(1, func(env *mpi.Env) error {
		parent, err := env.Parent()
		if err != nil {
			return err
		}
		if parent == nil {
			return fmt.Errorf("spawned helper has no parent world")
		}
		limit, _ := env.PerfVar("core.eager_limit")
		if err := parent.Send([]int64{limit}, 0, 1, mpi.LONG, 0, 0); err != nil {
			return err
		}
		return parent.Barrier()
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "eager helper:", err)
		return 1
	}
	return 0
}

// spawnHelperMain is the child side of TestSpawnMerge: connect back to
// the parent world and mirror its intercommunicator call sequence.
func spawnHelperMain() int {
	err := mpi.Main(1, func(env *mpi.Env) error {
		parent, err := env.Parent()
		if err != nil {
			return err
		}
		if parent == nil {
			return fmt.Errorf("spawned helper has no parent world")
		}
		if parent.RemoteSize() != 2 {
			return fmt.Errorf("parent remote size %d, want 2", parent.RemoteSize())
		}

		// Rooted bcast from the parent world's rank 0.
		got := make([]float64, 3)
		if err := parent.Bcast(got, 0, 3, mpi.DOUBLE, 0); err != nil {
			return err
		}
		if got[0] != 42 || got[1] != 43 || got[2] != 44 {
			return fmt.Errorf("bcast from parent delivered %v", got)
		}

		// Each side of an intercomm allreduce receives the remote side's
		// reduction: children contribute rank+1 (sum 3), parents 10 and
		// 20 (sum 30).
		send := []float64{float64(env.Rank() + 1)}
		recv := []float64{0}
		if err := parent.Allreduce(send, 0, recv, 0, 1, mpi.DOUBLE, mpi.SUM); err != nil {
			return err
		}
		if recv[0] != 30 {
			return fmt.Errorf("intercomm allreduce delivered %v, want the parents' 30", recv[0])
		}
		if err := parent.Barrier(); err != nil {
			return err
		}

		// Merge with the parents ordered first: child world rank r
		// becomes merged rank 2+r.
		merged, err := parent.Merge(true)
		if err != nil {
			return err
		}
		if merged.Size() != 4 || merged.Rank() != 2+env.Rank() {
			return fmt.Errorf("merged world rank %d/%d, want %d/4", merged.Rank(), merged.Size(), 2+env.Rank())
		}
		one := []float64{1}
		sum := []float64{0}
		if err := merged.Allreduce(one, 0, sum, 0, 1, mpi.DOUBLE, mpi.SUM); err != nil {
			return err
		}
		if sum[0] != 4 {
			return fmt.Errorf("merged allreduce gave %v, want 4", sum[0])
		}
		return merged.Barrier()
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spawn helper:", err)
		return 1
	}
	return 0
}

// TestSpawnMerge grows a 2-rank world by two spawned processes (the
// test binary re-entered through TestMain) and drives the parent side
// of the mirrored sequence in spawnHelperMain.
func TestSpawnMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	os.Setenv(spawnHelperEnv, "1")
	defer os.Unsetenv(spawnHelperEnv)

	err = mpi.Run(2, func(env *mpi.Env) error {
		world := env.CommWorld()
		ic, err := world.Spawn(exe, []string{"-test.run=none"}, 2)
		if err != nil {
			return err
		}
		if ic.RemoteSize() != 2 {
			return fmt.Errorf("spawned remote size %d, want 2", ic.RemoteSize())
		}

		buf := []float64{42, 43, 44}
		root := mpi.ProcNull
		if world.Rank() == 0 {
			root = mpi.Root
		}
		if err := ic.Bcast(buf, 0, 3, mpi.DOUBLE, root); err != nil {
			return err
		}

		send := []float64{float64(10 * (world.Rank() + 1))}
		recv := []float64{0}
		if err := ic.Allreduce(send, 0, recv, 0, 1, mpi.DOUBLE, mpi.SUM); err != nil {
			return err
		}
		if recv[0] != 3 {
			return fmt.Errorf("intercomm allreduce delivered %v, want the children's 3", recv[0])
		}
		if err := ic.Barrier(); err != nil {
			return err
		}

		merged, err := ic.Merge(false)
		if err != nil {
			return err
		}
		if merged.Size() != 4 || merged.Rank() != world.Rank() {
			return fmt.Errorf("merged world rank %d/%d, want %d/4", merged.Rank(), merged.Size(), world.Rank())
		}
		one := []float64{1}
		sum := []float64{0}
		if err := merged.Allreduce(one, 0, sum, 0, 1, mpi.DOUBLE, mpi.SUM); err != nil {
			return err
		}
		if sum[0] != 4 {
			return fmt.Errorf("merged allreduce gave %v, want 4", sum[0])
		}
		return merged.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpawnInheritsEagerLimit: a world spawned by a job started at a
// 4 KiB eager limit runs at 4 KiB too, not at the default — the limit
// is one value per job, and a merged world must agree on it.
func TestSpawnInheritsEagerLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	os.Setenv(spawnHelperEnv, "eager")
	defer os.Unsetenv(spawnHelperEnv)

	err = mpi.RunWith(mpi.RunOptions{NP: 1, EagerLimit: 4096}, func(env *mpi.Env) error {
		ic, err := env.CommWorld().Spawn(exe, []string{"-test.run=none"}, 1)
		if err != nil {
			return err
		}
		got := []int64{0}
		if _, err := ic.Recv(got, 0, 1, mpi.LONG, 0, 0); err != nil {
			return err
		}
		if got[0] != 4096 {
			return fmt.Errorf("spawned child's core.eager_limit = %d, want the parent's 4096", got[0])
		}
		return ic.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConnectAccept joins two independent in-process worlds through a
// port and exercises the intercommunicator collectives across the
// boundary (satellite coverage for Bcast/Allreduce over Connect/Accept).
func TestConnectAccept(t *testing.T) {
	portCh := make(chan string, 1)
	var wg sync.WaitGroup
	var errA, errB error

	wg.Add(1)
	go func() {
		defer wg.Done()
		errA = mpi.Run(2, func(env *mpi.Env) error {
			world := env.CommWorld()
			port := ""
			if world.Rank() == 0 {
				var err error
				if port, err = env.OpenPort(); err != nil {
					return err
				}
				if !strings.HasPrefix(port, "gompi-port://") {
					return fmt.Errorf("port name %q has the wrong scheme", port)
				}
				portCh <- port
			}
			ic, err := world.Accept(port, 0)
			if err != nil {
				return err
			}

			// Rooted bcast: this side provides the root.
			buf := []float64{7}
			root := mpi.ProcNull
			if world.Rank() == 0 {
				root = mpi.Root
			}
			if err := ic.Bcast(buf, 0, 1, mpi.DOUBLE, root); err != nil {
				return err
			}

			send := []float64{float64(10 * (world.Rank() + 1))}
			recv := []float64{0}
			if err := ic.Allreduce(send, 0, recv, 0, 1, mpi.DOUBLE, mpi.SUM); err != nil {
				return err
			}
			if recv[0] != 3 {
				return fmt.Errorf("accept side allreduce got %v, want 3", recv[0])
			}

			// Intercomm point-to-point addresses the remote group.
			if world.Rank() == 0 {
				if err := ic.Send([]float64{math.Pi}, 0, 1, mpi.DOUBLE, 1, 5); err != nil {
					return err
				}
			}

			merged, err := ic.Merge(false)
			if err != nil {
				return err
			}
			if merged.Size() != 4 || merged.Rank() != world.Rank() {
				return fmt.Errorf("merged rank %d/%d, want %d/4", merged.Rank(), merged.Size(), world.Rank())
			}
			one, sum := []float64{1}, []float64{0}
			if err := merged.Allreduce(one, 0, sum, 0, 1, mpi.DOUBLE, mpi.SUM); err != nil {
				return err
			}
			if sum[0] != 4 {
				return fmt.Errorf("merged allreduce gave %v", sum[0])
			}
			return merged.Barrier()
		})
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		errB = mpi.Run(2, func(env *mpi.Env) error {
			world := env.CommWorld()
			port := ""
			if world.Rank() == 0 {
				port = <-portCh
			}
			ic, err := world.Connect(port, 0)
			if err != nil {
				return err
			}

			buf := []float64{0}
			if err := ic.Bcast(buf, 0, 1, mpi.DOUBLE, 0); err != nil {
				return err
			}
			if buf[0] != 7 {
				return fmt.Errorf("bcast across the join delivered %v, want 7", buf[0])
			}

			send := []float64{float64(world.Rank() + 1)}
			recv := []float64{0}
			if err := ic.Allreduce(send, 0, recv, 0, 1, mpi.DOUBLE, mpi.SUM); err != nil {
				return err
			}
			if recv[0] != 30 {
				return fmt.Errorf("connect side allreduce got %v, want 30", recv[0])
			}

			if world.Rank() == 1 {
				in := []float64{0}
				if _, err := ic.Recv(in, 0, 1, mpi.DOUBLE, 0, 5); err != nil {
					return err
				}
				if in[0] != math.Pi {
					return fmt.Errorf("intercomm pt2pt delivered %v", in[0])
				}
			}

			merged, err := ic.Merge(false)
			if err != nil {
				return err
			}
			// The accept side orders first on a tie.
			if merged.Size() != 4 || merged.Rank() != 2+world.Rank() {
				return fmt.Errorf("merged rank %d/%d, want %d/4", merged.Rank(), merged.Size(), 2+world.Rank())
			}
			one, sum := []float64{1}, []float64{0}
			if err := merged.Allreduce(one, 0, sum, 0, 1, mpi.DOUBLE, mpi.SUM); err != nil {
				return err
			}
			if sum[0] != 4 {
				return fmt.Errorf("merged allreduce gave %v", sum[0])
			}
			return merged.Barrier()
		})
	}()

	wg.Wait()
	if errA != nil {
		t.Errorf("accept world: %v", errA)
	}
	if errB != nil {
		t.Errorf("connect world: %v", errB)
	}
}

// TestConnectAcceptRefusesEagerMismatch: worlds whose eager limits
// differ would choose different schedules for one collective, so the
// join refuses them: both sides fail with ErrPort, and the message names
// both limits. TestConnectAccept covers equal limits.
func TestConnectAcceptRefusesEagerMismatch(t *testing.T) {
	check := func(verb string, err error) error {
		if mpi.ClassOf(err) != mpi.ErrPort || !strings.Contains(fmt.Sprint(err), "4096") || !strings.Contains(fmt.Sprint(err), "65536") {
			return fmt.Errorf("%s across eager limits 4096 and 65536: %v (class %v), want ErrPort naming both", verb, err, mpi.ClassOf(err))
		}
		return nil
	}
	portCh := make(chan string, 1)
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		errA = mpi.RunWith(mpi.RunOptions{NP: 2, EagerLimit: 4096}, func(env *mpi.Env) error {
			world := env.CommWorld()
			port := ""
			if world.Rank() == 0 {
				var err error
				if port, err = env.OpenPort(); err != nil {
					return err
				}
				defer env.ClosePort(port)
				portCh <- port
			}
			_, err := world.Accept(port, 0)
			return check("Accept", err)
		})
	}()
	go func() {
		defer wg.Done()
		errB = mpi.Run(2, func(env *mpi.Env) error {
			world := env.CommWorld()
			port := ""
			if world.Rank() == 0 {
				port = <-portCh
			}
			_, err := world.Connect(port, 0)
			return check("Connect", err)
		})
	}()
	wg.Wait()
	if errA != nil {
		t.Error(errA)
	}
	if errB != nil {
		t.Error(errB)
	}
}

// TestConnectRevokedFailsFast: the documented fault-tolerance
// interplay — dynamic-process entry points refuse a revoked
// communicator immediately instead of hanging in the rendezvous.
func TestConnectRevokedFailsFast(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		world := env.CommWorld()
		if err := world.Revoke(); err != nil {
			return err
		}
		if _, err := world.Connect("gompi-port://127.0.0.1:1/ep0/kaa", 0); mpi.ClassOf(err) != mpi.ErrRevoked {
			return fmt.Errorf("Connect on revoked world: %v (class %v), want ErrRevoked", err, mpi.ClassOf(err))
		}
		if _, err := world.Spawn("/bin/true", nil, 1); mpi.ClassOf(err) != mpi.ErrRevoked {
			return fmt.Errorf("Spawn on revoked world: %v (class %v), want ErrRevoked", err, mpi.ClassOf(err))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPortLifecycleErrors(t *testing.T) {
	err := mpi.Run(1, func(env *mpi.Env) error {
		port, err := env.OpenPort()
		if err != nil {
			return err
		}
		if err := env.ClosePort(port); err != nil {
			return err
		}
		if err := env.ClosePort(port); mpi.ClassOf(err) != mpi.ErrPort {
			return fmt.Errorf("double ClosePort: %v, want ErrPort", err)
		}
		if _, err := env.CommWorld().Connect("not a port name", 0); mpi.ClassOf(err) != mpi.ErrPort {
			return fmt.Errorf("Connect with a garbage name: %v, want ErrPort", err)
		}
		// Accept on a never-opened (or already closed) port fails at the
		// root's handshake.
		if _, err := env.CommWorld().Accept(port, 0); mpi.ClassOf(err) != mpi.ErrPort {
			return fmt.Errorf("Accept on a closed port: %v, want ErrPort", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpawnErrors(t *testing.T) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		world := env.CommWorld()
		if _, err := world.Spawn("/this/binary/does/not/exist", nil, 1); mpi.ClassOf(err) != mpi.ErrSpawn {
			return fmt.Errorf("Spawn of a missing binary: %v, want ErrSpawn", err)
		}
		if _, err := world.Spawn("/bin/true", nil, 0); mpi.ClassOf(err) != mpi.ErrSpawn {
			return fmt.Errorf("Spawn of zero processes: %v, want ErrSpawn", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTraceHoldsSpawnJoinAndPioSpans: the spans the binding, the join
// fabric and the collective I/O passes open on a rank's recorder are
// whole — every one begun is ended, under an id no other open span of
// its kind holds — for a traced Spawn followed by a collective write
// and read.
func TestTraceHoldsSpawnJoinAndPioSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	os.Setenv(spawnHelperEnv, "eager")
	defer os.Unsetenv(spawnHelperEnv)
	dir := t.TempDir()
	err = mpi.RunWith(mpi.RunOptions{NP: 2, Trace: true}, func(env *mpi.Env) error {
		world := env.CommWorld()
		ic, err := world.Spawn(exe, []string{"-test.run=none"}, 1)
		if err != nil {
			return err
		}
		if world.Rank() == 0 {
			if _, err := ic.Recv(make([]int64, 1), 0, 1, mpi.LONG, 0, 0); err != nil {
				return err
			}
		}
		if err := ic.Barrier(); err != nil {
			return err
		}
		f, err := world.OpenFile(filepath.Join(dir, "io.bin"), mpi.ModeCreate|mpi.ModeRdwr|mpi.ModeDeleteOnClose)
		if err != nil {
			return err
		}
		buf := make([]byte, 256)
		if _, err := f.WriteAtAll(int64(world.Rank()*len(buf)), buf, 0, len(buf), mpi.BYTE); err != nil {
			return err
		}
		if _, err := f.ReadAtAll(int64(world.Rank()*len(buf)), buf, 0, len(buf), mpi.BYTE); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		_, err = env.DumpTrace(dir)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	files, err := obs.ReadTraceDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("got %d trace dumps, want 2", len(files))
	}
	kinds := []obs.EventKind{obs.EvSpawn, obs.EvJoin, obs.EvAdmit, obs.EvPioExchange, obs.EvPioWrite, obs.EvPioRead}
	type key struct {
		kind obs.EventKind
		arg  uint32
	}
	seen := map[obs.EventKind]int{}
	for _, tf := range files {
		open := map[key]bool{}
		for _, ev := range tf.Events {
			if !slices.Contains(kinds, ev.Kind) {
				continue
			}
			k := key{ev.Kind, ev.Arg}
			switch ev.Ph {
			case obs.PhBegin:
				if open[k] {
					t.Errorf("rank %d: span %v id %d begun twice", tf.Rank, ev.Kind, ev.Arg)
				}
				open[k] = true
				seen[ev.Kind]++
			case obs.PhEnd:
				if !open[k] {
					t.Errorf("rank %d: span %v id %d ended but not open", tf.Rank, ev.Kind, ev.Arg)
				}
				delete(open, k)
			}
		}
		for k := range open {
			t.Errorf("rank %d: span %v id %d never ended", tf.Rank, k.kind, k.arg)
		}
	}
	t.Logf("spans begun per kind: %v", seen)
	for _, k := range kinds {
		if seen[k] == 0 {
			t.Errorf("no %v span in the trace", k)
		}
	}
}
