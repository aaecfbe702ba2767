package main

import (
	"fmt"
	"runtime"
	"time"

	"gompi/internal/transport"
	"gompi/mpi"
)

type kind int

const (
	kindP2P kind = iota
	kindMatch
	kindAllreduce
	kindHalo
)

// A workload is one named set of inputs. The op counts are frozen here
// (BENCHMARK.json has no room for them): batch was calibrated on the
// seed commit so that one batch takes about 50 ms on the 2-core box,
// which keeps the harness's two time stamps far under 1 % of it and
// gives a 10 s run about 200 batch samples.
type workload struct {
	name   string
	kind   kind
	np     int
	device string // "chan" or "tcp"
	// bytes is the size of one message: the size the ladder re-issues
	// the loop at on each lower rung.
	bytes int
	// opBytes is the payload one op moves, summed over ranks (computed
	// from the sizes, not measured): mb_per_s = ops_per_s × opBytes.
	opBytes int
	// packsPerOp is how many dtype.Pack calls of `bytes` one op makes,
	// summed over ranks (computed).
	packsPerOp int
	batch      int // ops per timed batch
	smokeBatch int // ops per batch under -smoke and in tests
}

const (
	matchDepth = 256
	haloN      = 256
	haloNP     = 4
)

var workloads = []*workload{
	{name: "p2p.8B.chan", kind: kindP2P, np: 2, device: "chan", bytes: 8,
		opBytes: 2 * 8, packsPerOp: 2, batch: 20000, smokeBatch: 20},
	{name: "p2p.256KiB.chan", kind: kindP2P, np: 2, device: "chan", bytes: 256 << 10,
		opBytes: 2 * (256 << 10), packsPerOp: 2, batch: 1000, smokeBatch: 4},
	// ISSUE.md asked for 256 KiB here too. At that size a loopback round
	// trip on the 2-vCPU box is a chain of cross-CPU wake-ups that flips
	// between a 150 µs and a 240–290 µs mode for seconds at a time
	// (quartile distance 28 % of the median over ten runs), so by the
	// issue's own rule the workload was re-sized until the bytes dominate.
	{name: "p2p.1MiB.tcp", kind: kindP2P, np: 2, device: "tcp", bytes: 1 << 20,
		opBytes: 2 * (1 << 20), packsPerOp: 2, batch: 50, smokeBatch: 4},
	{name: "match.depth256", kind: kindMatch, np: 2, device: "chan", bytes: 8,
		opBytes: 2 * matchDepth * 8, packsPerOp: 2 * matchDepth, batch: 100, smokeBatch: 2},
	{name: "allreduce.8B.np4", kind: kindAllreduce, np: 4, device: "chan", bytes: 8,
		opBytes: 4 * 8, packsPerOp: 4, batch: 2000, smokeBatch: 8},
	{name: "allreduce.256KiB.np4", kind: kindAllreduce, np: 4, device: "chan", bytes: 256 << 10,
		opBytes: 4 * (256 << 10), packsPerOp: 4, batch: 30, smokeBatch: 2},
	// Three interior links, a column of haloN doubles each way.
	{name: "halo2d.n256.np4", kind: kindHalo, np: haloNP, device: "chan", bytes: haloN * 8,
		opBytes: 6 * haloN * 8, packsPerOp: 6, batch: 350, smokeBatch: 6},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runCfg is what one measured run of a workload's loop needs.
type runCfg struct {
	seed int64
	plan plan
	// spans makes rank 0 stamp every op and keep the spans.
	spans bool
	// counters makes every rank read its pvars around the timed region.
	counters bool
	// armed runs with the program's own flight recorder on
	// (RunOptions.Trace), for obs.armed_overhead_ratio.
	armed bool
	// typed issues p2p ops through mpi/typed instead of the classic API.
	typed bool
	// corrupt makes the echoing rank damage the last echo of each
	// batch: the test that fail_ratio rises when outputs are wrong.
	corrupt bool
	timer   time.Duration
}

// pvars are the counters read (through Env.PerfVar) around the timed
// region; their deltas divided by ops are exact counts.
var pvars = []string{
	"core.sends_eager", "core.sends_sync", "core.sends_rndv",
	"core.recvs_matched", "core.recvs_unexpected",
	"core.bytes_copied", "core.bytes_sent",
	"coll.scheds_started", "coll.scheds_parked",
}

// runResult is what one measured run yields.
type runResult struct {
	batchUS []float64
	ops     int64
	region  time.Duration
	failed  int64
	sp      *spanLog

	// With cfg.counters: per rank, pvar deltas over the timed region;
	// process-wide, the frame pool's and the allocator's.
	pvar       []map[string]int64
	pool       transport.PoolSnapshot
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32

	serialSweepUS float64 // halo only: the single-rank reference's time per sweep
}

func (r *runResult) p50() float64     { return median(r.batchUS) }
func (r *runResult) opsPerS() float64 { return float64(r.ops) / r.region.Seconds() }

// pvarPerOp sums a counter's delta over the ranks and divides by ops.
func (r *runResult) pvarPerOp(name string) float64 {
	var sum int64
	for _, m := range r.pvar {
		sum += m[name]
	}
	return float64(sum) / float64(r.ops)
}

// shared is what the ranks of a job have in common beyond MPI. It is
// made once per run and serves the run's jobs one after the other.
type shared struct {
	posted chan struct{} // match: see matchOp
	halo   *haloShared
}

func newShared(w *workload, seed int64, batch int) *shared {
	sh := &shared{posted: make(chan struct{})}
	if w.kind == kindHalo {
		sh.halo = newHaloShared(seed, batch)
	}
	return sh
}

// measure runs w's loop once, in this process, as a fresh np-rank job.
func measure(w *workload, cfg runCfg, sh *shared) (*runResult, error) {
	h := newHarness(w.np, cfg.plan, cfg.timer)
	res := &runResult{pvar: make([]map[string]int64, w.np)}
	if cfg.spans {
		res.sp = newSpanLog()
	}
	var mem0, mem1 runtime.MemStats
	var pool0, pool1 transport.PoolSnapshot

	err := mpi.RunWith(mpi.RunOptions{NP: w.np, Device: w.device, Trace: cfg.armed}, func(env *mpi.Env) error {
		rank := env.Rank()
		op, err := w.newOp(env, cfg, sh)
		if err != nil {
			return err
		}
		before := map[string]int64{}
		mark := func(start bool) {
			if !cfg.counters {
				return
			}
			if rank == 0 {
				if start {
					runtime.ReadMemStats(&mem0)
					pool0 = transport.PoolStats()
				} else {
					runtime.ReadMemStats(&mem1)
					pool1 = transport.PoolStats()
				}
			}
			delta := map[string]int64{}
			for _, name := range pvars {
				v, _ := env.PerfVar(name) // coll.* register on the first collective; 0 until then
				if start {
					before[name] = v
				} else {
					delta[name] = v - before[name]
				}
			}
			if !start {
				res.pvar[rank] = delta
			}
		}
		if err := env.CommWorld().Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			return h.lead(op, res.sp, mark)
		}
		return h.follow(rank, op, mark)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.batchUS, res.ops, res.region, res.failed = h.batchUS, h.ops, h.region, h.failures()
	if cfg.counters {
		res.pool = transport.PoolSnapshot{Gets: pool1.Gets - pool0.Gets, Hits: pool1.Hits - pool0.Hits}
		res.mallocs = mem1.Mallocs - mem0.Mallocs
		res.allocBytes = mem1.TotalAlloc - mem0.TotalAlloc
		res.gcCycles = mem1.NumGC - mem0.NumGC
	}
	if sh.halo != nil {
		res.serialSweepUS = sh.halo.serialSweepUS
	}
	return res, nil
}

func (w *workload) newOp(env *mpi.Env, cfg runCfg, sh *shared) (rankOp, error) {
	switch w.kind {
	case kindP2P:
		return newP2POp(env, w.bytes, cfg), nil
	case kindMatch:
		return newMatchOp(env, cfg, sh.posted), nil
	case kindAllreduce:
		return newAllreduceOp(env, w.bytes/8, cfg), nil
	case kindHalo:
		return newHaloOp(env, sh.halo)
	}
	return nil, fmt.Errorf("workload %s: no loop for kind %d", w.name, w.kind)
}
