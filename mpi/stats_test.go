package mpi

import (
	"strings"
	"sync"
	"testing"

	"gompi/internal/core"
	"gompi/internal/obs"
)

// TestStatsInvariants drives a deterministic 2-rank exchange across all
// three send protocols and checks the pvar registry's bookkeeping: the
// protocol counters partition the messages sent, and the byte totals
// balance across the job.
func TestStatsInvariants(t *testing.T) {
	const (
		eagerLim  = 1024
		nEager    = 10
		eagerSz   = 64
		nRndv     = 3
		rndvSz    = 4096
		nSync     = 1
		perRank   = nEager + nRndv + nSync
		rankBytes = nEager*eagerSz + nRndv*rndvSz + nSync*eagerSz
	)
	stats := make([]map[string]uint64, 2)
	var mu sync.Mutex

	exchange := func(env *Env, sender int) error {
		w := env.CommWorld()
		peer := 1 - w.Rank()
		small := make([]byte, eagerSz)
		big := make([]byte, rndvSz)
		if w.Rank() == sender {
			for i := 0; i < nEager; i++ {
				if err := w.Send(small, 0, eagerSz, BYTE, peer, 1); err != nil {
					return err
				}
			}
			for i := 0; i < nRndv; i++ {
				if err := w.Send(big, 0, rndvSz, BYTE, peer, 2); err != nil {
					return err
				}
			}
			return w.Ssend(small, 0, eagerSz, BYTE, peer, 3)
		}
		for i := 0; i < nEager; i++ {
			if _, err := w.Recv(small, 0, eagerSz, BYTE, peer, 1); err != nil {
				return err
			}
		}
		for i := 0; i < nRndv; i++ {
			if _, err := w.Recv(big, 0, rndvSz, BYTE, peer, 2); err != nil {
				return err
			}
		}
		_, err := w.Recv(small, 0, eagerSz, BYTE, peer, 3)
		return err
	}

	err := RunWith(RunOptions{NP: 2, EagerLimit: eagerLim}, func(env *Env) error {
		// Phase 1: rank 0 sends, rank 1 receives; phase 2 reverses. The
		// receiving phase of each rank completes before it snapshots, so
		// every payload byte is matched by snapshot time.
		if err := exchange(env, 0); err != nil {
			return err
		}
		if err := exchange(env, 1); err != nil {
			return err
		}
		mu.Lock()
		stats[env.Rank()] = perfVars(env)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var sent, recv, eager, sync_, rndv uint64
	for rank, st := range stats {
		e, s, r := st["core.sends_eager"], st["core.sends_sync"], st["core.sends_rndv"]
		if got := e + s + r; got != perRank {
			t.Errorf("rank %d: protocol counters %d+%d+%d = %d, want %d messages",
				rank, e, s, r, got, perRank)
		}
		if st["core.recvs_matched"]+st["core.recvs_unexpected"] != perRank {
			t.Errorf("rank %d: matched %d + unexpected %d != %d received",
				rank, st["core.recvs_matched"], st["core.recvs_unexpected"], perRank)
		}
		sent += st["core.bytes_sent"]
		recv += st["core.bytes_recv"]
		eager += e
		sync_ += s
		rndv += r
	}
	if sent != recv {
		t.Errorf("job-wide BytesSent %d != BytesRecv %d", sent, recv)
	}
	if want := uint64(2 * rankBytes); sent != want {
		t.Errorf("job-wide BytesSent = %d, want %d", sent, want)
	}
	if eager != 2*nEager || sync_ != 2*nSync || rndv != 2*nRndv {
		t.Errorf("protocol split eager=%d sync=%d rndv=%d, want %d/%d/%d",
			eager, sync_, rndv, 2*nEager, 2*nSync, 2*nRndv)
	}
}

// perfVars is the rank's performance variables by name, read at once.
func perfVars(env *Env) map[string]uint64 {
	m := map[string]uint64{}
	for _, v := range env.PerfVars() {
		m[v.Name] = uint64(v.Value)
	}
	return m
}

// TestPerfVarsAndEagerLimit exercises the MPI_T-style surface over chan
// and tcp, in two jobs per device: one at the default eager limit and
// one started below the payload. core.eager_limit reads the job's
// limit, the same send is eager in the first job and rendezvous in the
// second, and after a p2p exchange and a collective every variable
// PerfVars lists — core, coll and transport, the medium's own included —
// reads the same through PerfVar.
func TestPerfVarsAndEagerLimit(t *testing.T) {
	for _, device := range []string{"chan", "tcp"} {
		for _, limit := range []int{0, 256} {
			envs := make([]*Env, 2)
			err := RunWith(RunOptions{NP: 2, Device: device, EagerLimit: limit}, func(env *Env) error {
				envs[env.Rank()] = env
				return perfVarsAtLimit(env, limit)
			})
			if err != nil {
				t.Fatalf("%s, limit %d: %v", device, limit, err)
			}
			// The job is over, so nothing moves between the two reads.
			for rank, env := range envs {
				seen := map[string]bool{}
				for _, v := range env.PerfVars() {
					prefix, _, _ := strings.Cut(v.Name, ".")
					seen[prefix] = true
					if got, ok := env.PerfVar(v.Name); !ok || got != v.Value {
						t.Errorf("%s rank %d: PerfVars lists %s = %d, PerfVar reads %d, %v", device, rank, v.Name, v.Value, got, ok)
					}
				}
				if !seen["core"] || !seen["coll"] || !seen["transport"] {
					t.Errorf("%s rank %d: PerfVars missing a subsystem: %v", device, rank, seen)
				}
				if n, _ := env.PerfVar("transport." + device + ".frames_sent"); n == 0 {
					t.Errorf("%s rank %d: no frames counted on its own medium", device, rank)
				}
			}
		}
	}
}

// perfVarsAtLimit is one rank's part of TestPerfVarsAndEagerLimit in a
// job started at eager limit limit (0: the default): one 2 KiB send,
// eager under the default limit and rendezvous under 256 bytes, then
// one collective.
func perfVarsAtLimit(env *Env, limit int) error {
	w := env.CommWorld()
	peer := 1 - w.Rank()
	buf := make([]byte, 2048)

	wantLimit, wantEager := int64(core.DefaultEagerLimit), int64(1)
	if limit != 0 {
		wantLimit, wantEager = int64(limit), 0
	}
	if got, ok := env.PerfVar("core.eager_limit"); !ok || got != wantLimit {
		return errf(ErrIntern, "core.eager_limit = %d, %v; want %d", got, ok, wantLimit)
	}
	if w.Rank() == 0 {
		if err := w.Send(buf, 0, len(buf), BYTE, peer, 1); err != nil {
			return err
		}
		eager, _ := env.PerfVar("core.sends_eager")
		rndv, _ := env.PerfVar("core.sends_rndv")
		if eager != wantEager || rndv != 1-wantEager {
			return errf(ErrIntern, "at limit %d: eager=%d rndv=%d, want %d/%d", wantLimit, eager, rndv, wantEager, 1-wantEager)
		}
	} else if _, err := w.Recv(buf, 0, len(buf), BYTE, peer, 1); err != nil {
		return err
	}

	in, out := []float64{1}, []float64{0}
	if err := w.Allreduce(in, 0, out, 0, 1, DOUBLE, SUM); err != nil {
		return err
	}
	if n, _ := env.PerfVar("coll.scheds_started"); n == 0 {
		return errf(ErrIntern, "an allreduce started no schedule")
	}
	return nil
}

// TestRunTraceRecords checks RunOptions.Trace end to end in-process:
// the recorder arms, the exchange lands in the ring, and DumpTrace
// round-trips through the wire format. A rendezvous message is one
// whole span, from its RTS to its loan's return — one frame by reference.
func TestRunTraceRecords(t *testing.T) {
	dir := t.TempDir()
	err := RunWith(RunOptions{NP: 2, Trace: true}, func(env *Env) error {
		w := env.CommWorld()
		for _, n := range []int{128, 256 << 10} {
			buf := make([]byte, n)
			var err error
			if w.Rank() == 0 {
				err = w.Send(buf, 0, len(buf), BYTE, 1, 9)
			} else {
				_, err = w.Recv(buf, 0, len(buf), BYTE, 0, 9)
			}
			if err != nil {
				return err
			}
		}
		if !env.TraceEnabled() {
			return errf(ErrIntern, "Trace option did not arm the recorder")
		}
		_, err := env.DumpTrace(dir)
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
	kinds := map[obs.EventKind]bool{}
	spans := map[obs.Phase]int{}
	for _, tf := range files {
		for _, ev := range tf.Events {
			kinds[ev.Kind] = true
			if ev.Kind == obs.EvSendRndv {
				spans[ev.Ph]++
			}
		}
	}
	if spans[obs.PhBegin] != 1 || spans[obs.PhEnd] != 1 {
		t.Errorf("rendezvous span: %d begins, %d ends; want one whole span for the one large message", spans[obs.PhBegin], spans[obs.PhEnd])
	}
	for _, row := range obs.Summarize(files) {
		if row.Name == "send.rndv" && (row.Count != 1 || row.P50 <= 0) {
			t.Errorf("summary row %+v, want one rendezvous with a width", row)
		}
	}
	if !kinds[obs.EvSendEager] {
		t.Error("trace lacks the eager send event")
	}
	if !kinds[obs.EvRecvMatched] && !kinds[obs.EvRecvUnexpected] {
		t.Error("trace lacks any receive event")
	}
}
