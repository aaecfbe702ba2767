// Command benchmark is the repository's benchmark: seven named
// workloads over the mpi / mpi/typed API, three gated end-to-end
// metrics, and an outside-in ladder (transport → core → mpi → typed,
// coll, dtype) that says which layer a difference belongs to. README.md
// in this directory has the tables; BENCHMARK.json at the repository
// root has the contract.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
//	benchmark [-sets N] [-out FILE]                           whole sets, every workload
//	benchmark -compare A.json B.json                          verdict per workload and metric
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"gompi/mpi"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// Ranks are goroutines of this process; four of them at most.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "run this one workload and print its metrics (default: run whole sets)")
	seed := fs.Int64("seed", 1, "seed the payloads, the tag permutation and the grid derive from")
	seconds := fs.Float64("seconds", 0, "length of one run's timed region (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: the traced run (spans, ladder, counters) instead of the end-to-end one")
	sets := fs.Int("sets", 1, "sets to run back to back; two or more also compares the last two")
	out := fs.String("out", "", "write the sets to this file as JSON")
	outDir := fs.String("outdir", filepath.Join("benchmark", "out"), "directory for the span files")
	contract := fs.String("contract", "BENCHMARK.json", "the file holding run_seconds and the bounds")
	cmp := fs.Bool("compare", false, "compare the last sets of two files: benchmark -compare A.json B.json")
	smoke := fs.Bool("smoke", false, "tiny fixed op counts: checks the plumbing, measures nothing")
	childSetup := fs.Bool("child-setup", false, "internal: start the workload's job, report ready, exit")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	err := func() error {
		switch {
		case *childSetup:
			return setupChild(*name)
		case *cmp:
			if fs.NArg() != 2 {
				return fmt.Errorf("-compare takes two files")
			}
			return compareFiles(fs.Arg(0), fs.Arg(1), *contract)
		case *name != "":
			if *seconds == 0 {
				c, err := loadContract(*contract)
				if err != nil {
					return err
				}
				*seconds = float64(c.RunSeconds)
			}
			return runSingle(*name, *seed, *seconds, *trace == 1, *smoke, *outDir)
		default:
			return runSets(*sets, *seed, *seconds, *smoke, *out, *outDir, *contract)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runSingle is one run of one workload: what the contract's command
// line asks for, and what every run of a set is, in a fresh process.
func runSingle(name string, seed int64, seconds float64, traced, smoke bool, outDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	// A run that loses a rank would hang its peers; the contract allows
	// 180 s.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded 170 s, giving up")
		os.Exit(3)
	})
	timer := timerPair()
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%t go=%s nproc=%d GOMAXPROCS=%d timer_pair_ns=%d\n",
		w.name, seed, seconds, traced, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), timer.Nanoseconds())

	var res result
	if traced {
		res, err = traceRun(w, seed, seconds, smoke, timer, outDir)
	} else {
		res, err = plainRun(w, seed, seconds, smoke, timer)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// segments is how many jobs a run's timed region is cut into. Each job
// is a fresh set of ranks, devices and buffers: a single job settles
// into one placement of its goroutines and memory and stays some
// percent fast or slow for seconds on end, so the median over several
// jobs repeats better than that over one job of the same total length.
// For the same reason ops_per_s is the median of the segments' rates: a
// burst of outside load that slows one or two segments does not move it.
const segments = 10

// plainRun measures the end-to-end metrics, tracing off everywhere. The
// set-up launches are spread between the segments for the same reason
// the timed region is cut up.
func plainRun(w *workload, seed int64, seconds float64, smoke bool, timer time.Duration) (result, error) {
	p := plan{seconds: seconds / segments, batch: w.batch, smoke: smoke}
	if smoke {
		p.batch = w.smokeBatch
	}
	sh := newShared(w, seed, p.batch)
	var setups, batchUS, rates []float64
	var ops, failed int64
	var region time.Duration
	for s := 0; s < segments; s++ {
		secs, err := measureSetup(w, smoke)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, secs...)
		r, err := measure(w, runCfg{seed: seed, plan: p, timer: timer}, sh)
		if err != nil {
			return result{}, err
		}
		batchUS = append(batchUS, r.batchUS...)
		rates = append(rates, r.opsPerS())
		ops, failed, region = ops+r.ops, failed+r.failed, region+r.region
	}
	tailUS, pct := tail(batchUS)
	fmt.Printf("# samples=%d op_us_tail=%.6g tail_pct=%.4g region_s=%.4g setup_launches=%d\n",
		len(batchUS), tailUS, pct, region.Seconds(), len(setups))
	return result{
		Correct: failed == 0, Attempted: ops, Failed: failed,
		Metrics: map[string]metric{
			"setup_s":   {median(setups), "s"},
			"op_us_p50": {median(batchUS), "us"},
			"ops_per_s": {median(rates), "1/s"},
		},
	}, nil
}

// setupLaunches is how many times per segment a run starts the
// workload's job; setup_s is the median over all of a run's launches.
const setupLaunches = 5

// measureSetup times, setupLaunches times over, the launch of a fresh
// process up to the point where every rank of the workload's job is
// through its first Barrier: Go runtime start, device construction and
// mpi initialisation.
func measureSetup(w *workload, smoke bool) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	launches := setupLaunches
	if smoke {
		launches = 1
	}
	secs := make([]float64, 0, launches)
	for i := 0; i < launches; i++ {
		cmd := exec.Command(exe, "-child-setup", "-workload", w.name)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0)
		io.Copy(io.Discard, stdout) //nolint:errcheck // draining before Wait
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up child said %q (%v)", line, rerr)
		}
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}

// setupChild is the process measureSetup launches.
func setupChild(name string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	var through sync.WaitGroup
	through.Add(w.np)
	return mpi.RunWith(mpi.RunOptions{NP: w.np, Device: w.device}, func(env *mpi.Env) error {
		err := env.CommWorld().Barrier()
		through.Done()
		if err == nil && env.Rank() == 0 {
			through.Wait()
			_, err = os.Stdout.WriteString("ready\n")
		}
		return err
	})
}

// traceRun is the traced run: the workload's loop untraced (with the
// counters read around it) and again with spans, then the ladder.
func traceRun(w *workload, seed int64, seconds float64, smoke bool, timer time.Duration, outDir string) (result, error) {
	// Shares of `seconds` per phase; with each phase's warm-up they add
	// up to about one untraced run.
	share := func(f float64) plan { return plan{seconds: seconds * f, smoke: smoke} }
	loop := share(0.25)
	loop.batch = max(1, w.batch/4)
	if smoke {
		loop.batch = w.smokeBatch
	}
	base := runCfg{seed: seed, timer: timer}

	sh := newShared(w, seed, loop.batch)
	cfg := base
	cfg.plan, cfg.counters = loop, true
	un, err := measure(w, cfg, sh)
	if err != nil {
		return result{}, err
	}
	cfg = base
	cfg.plan, cfg.spans = loop, true
	cfg.plan.seconds = seconds * 0.2
	tr, err := measure(w, cfg, sh)
	if err != nil {
		return result{}, err
	}
	if err := tr.sp.writeChrome(filepath.Join(outDir, "trace."+w.name+".json")); err != nil {
		return result{}, err
	}

	m := map[string]metric{}
	us := func(name string, v float64) { m[name] = metric{v, "us"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	ratio := func(name string, v float64) { m[name] = metric{v, "ratio"} }

	// Reported beside the gated metrics, from the untraced loop.
	tailUS, pct := tail(un.batchUS)
	us("op_us_tail", tailUS)
	m["tail_pct"] = metric{pct, "%"}
	count("samples", float64(len(un.batchUS)))
	m["mb_per_s"] = metric{un.opsPerS() * float64(w.opBytes) / 1e6, "MB/s"}
	count("allocs_per_op", float64(un.mallocs)/float64(un.ops))
	m["alloc_bytes_per_op"] = metric{float64(un.allocBytes) / float64(un.ops), "B"}
	count("gc_cycles", float64(un.gcCycles))
	ratio("fail_ratio", float64(un.failed+tr.failed)/float64(un.ops+tr.ops))
	// Both loops of this run, so that the ratios below have their base.
	us("loop.untraced_us", un.p50())
	us("loop.traced_us", tr.p50())
	ratio("trace_overhead_ratio", tr.p50()/un.p50())

	// Exact counts: pvar deltas over the untraced timed region ÷ ops.
	for _, c := range []string{"sends_eager", "sends_rndv", "recvs_matched", "recvs_unexpected"} {
		count("core."+c+"_per_op", un.pvarPerOp("core."+c))
	}
	m["core.bytes_copied_per_op"] = metric{un.pvarPerOp("core.bytes_copied"), "B"}
	m["core.bytes_sent_per_op"] = metric{un.pvarPerOp("core.bytes_sent"), "B"}
	count("coll.scheds_started_per_op", un.pvarPerOp("coll.scheds_started"))
	count("coll.scheds_parked_per_op", un.pvarPerOp("coll.scheds_parked"))
	msgs, collBytes := 0.0, 0.0
	if w.kind == kindAllreduce {
		// Every engine send of an allreduce workload is the collective's.
		msgs = un.pvarPerOp("core.sends_eager") + un.pvarPerOp("core.sends_sync") + un.pvarPerOp("core.sends_rndv")
		collBytes = un.pvarPerOp("core.bytes_sent")
	}
	count("coll.msgs_per_op", msgs)
	m["coll.bytes_sent_per_op"] = metric{collBytes, "B"}
	ratio("transport.pool_hit_ratio", un.pool.HitRate())

	// The ladder, at the workload's message size.
	rt := map[string]float64{}
	for _, dev := range []string{"chan", "tcp"} {
		if rt[dev], err = transportRT(dev, w.bytes, share(0.04)); err != nil {
			return result{}, err
		}
		us("transport."+dev+".rt_us", rt[dev])
	}
	coreUS, err := coreRT(w.device, w.bytes, share(0.06))
	if err != nil {
		return result{}, err
	}
	mpiUS, err := bindingRT(w.device, w.bytes, share(0.07), base)
	if err != nil {
		return result{}, err
	}
	cfg = base
	cfg.typed = true
	typedUS, err := bindingRT(w.device, w.bytes, share(0.07), cfg)
	if err != nil {
		return result{}, err
	}
	cfg = base
	cfg.armed = true
	armedUS, err := bindingRT(w.device, w.bytes, share(0.07), cfg)
	if err != nil {
		return result{}, err
	}
	us("transport.rt_us", rt[w.device])
	us("core.rt_us", coreUS)
	us("core.self_us", coreUS-rt[w.device])
	us("mpi.rt_us", mpiUS)
	us("mpi.self_us", mpiUS-coreUS)
	ratio("mpi.over_core_ratio", mpiUS/coreUS)
	us("typed.rt_us", typedUS)
	us("typed.self_us", typedUS-mpiUS)
	ratio("obs.armed_overhead_ratio", armedUS/mpiUS)

	packUS, unpackUS, wire, err := packTimes(w, share(0.02))
	if err != nil {
		return result{}, err
	}
	us("dtype.pack_us", packUS)
	us("dtype.unpack_us", unpackUS)
	m["dtype.bytes_packed_per_op"] = metric{float64(wire * w.packsPerOp), "B"}

	// The collective rung, for the workloads whose op is a collective.
	collUS, collSelf, multiple := 0.0, 0.0, 0.0
	if w.kind == kindAllreduce {
		if collUS, err = collRT(w.np, w.bytes/8, share(0.08), timer); err != nil {
			return result{}, err
		}
		collSelf = un.p50() - collUS
		multiple = un.p50() / (mpiUS / 2)
	}
	us("coll.op_us", collUS)
	us("mpi.coll_self_us", collSelf)
	ratio("coll.pingpong_multiple", multiple)

	// Where a sweep's time goes, from rank 0's spans.
	compute := tr.sp.meanUS("compute")
	halo := tr.sp.meanUS("halo.start") + tr.sp.meanUS("halo.wait")
	allreduce := tr.sp.meanUS("allreduce.wait")
	us("app.compute_us", compute)
	us("app.halo_us", halo)
	us("app.allreduce_us", allreduce)
	fraction := 0.0
	if total := compute + halo + allreduce; total > 0 {
		fraction = (halo + allreduce) / total
	}
	ratio("app.comm_fraction", fraction)
	us("app.serial_sweep_us", un.serialSweepUS)

	failed := un.failed + tr.failed
	return result{Correct: failed == 0, Attempted: un.ops + tr.ops, Failed: failed, Metrics: m}, nil
}
