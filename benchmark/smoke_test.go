package main

import (
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// measureSetup launches itself with -child-setup.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child-setup" {
		main()
		return
	}
	os.Exit(m.Run())
}

func smokeCfg(w *workload) runCfg {
	return runCfg{seed: 7, plan: plan{batch: w.smokeBatch, smoke: true}, counters: true}
}

// TestContractNamesEveryWorkloadAndMetric holds BENCHMARK.json against
// what the program runs and prints, for every workload, both ways round.
func TestContractNamesEveryWorkloadAndMetric(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("contract names %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, cw := range c.Workloads {
		w := workloads[i]
		if cw.Name != w.name {
			t.Errorf("workload %d: contract %q, program %q", i, cw.Name, w.name)
		}
		plain, err := plainRun(w, 7, 0, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := traceRun(w, 7, 0, true, 0, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []result{plain, traced} {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%t failed=%d attempted=%d", w.name, r.Correct, r.Failed, r.Attempted)
			}
		}
		if len(plain.Metrics) != len(c.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics printed, contract has %d", w.name, len(plain.Metrics), len(c.EndToEnd))
		}
		for _, g := range c.EndToEnd {
			if m, ok := plain.Metrics[g.Name]; !ok || m.Unit != g.Unit || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s: %+v, want unit %s and a value above 0", w.name, g.Name, m, g.Unit)
			}
		}
		if len(traced.Metrics) != len(c.PerLayer) {
			t.Errorf("%s: %d per-layer metrics printed, contract has %d", w.name, len(traced.Metrics), len(c.PerLayer))
		}
		for _, p := range c.PerLayer {
			if _, ok := traced.Metrics[p.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, p.Name)
			}
		}
		if traced.Metrics["fail_ratio"].Value != 0 {
			t.Errorf("%s: fail_ratio %g", w.name, traced.Metrics["fail_ratio"].Value)
		}
	}
}

// TestWorkloadsExerciseWhatTheyClaim checks the exact per-op counts
// behind each workload's reason for existing, on two consecutive runs.
func TestWorkloadsExerciseWhatTheyClaim(t *testing.T) {
	for _, w := range workloads {
		for run := 0; run < 2; run++ {
			r, err := measure(w, smokeCfg(w), newShared(w, 7, w.smokeBatch))
			if err != nil {
				t.Fatal(err)
			}
			perOp := func(rank int, name string) float64 { return float64(r.pvar[rank][name]) / float64(r.ops) }
			want := func(what string, got, want float64) {
				t.Helper()
				if got != want {
					t.Errorf("%s run %d: %s = %g, want %g", w.name, run, what, got, want)
				}
			}
			want("failed", float64(r.failed), 0)
			switch w.kind {
			case kindP2P:
				// Per round trip, summed over the two ranks.
				eager, rndv := 2.0, 0.0
				if w.bytes > 64<<10 { // core.DefaultEagerLimit
					eager, rndv = 0, 2
				}
				want("core.sends_eager_per_op", r.pvarPerOp("core.sends_eager"), eager)
				want("core.sends_rndv_per_op", r.pvarPerOp("core.sends_rndv"), rndv)
			case kindMatch:
				want("rank 0 recvs matched from posted, per window", perOp(0, "core.recvs_matched"), matchDepth)
				want("rank 0 recvs matched from unexpected, per window", perOp(0, "core.recvs_unexpected"), matchDepth)
			case kindAllreduce:
				for rank := 0; rank < w.np; rank++ {
					want("coll.scheds_started_per_op on one rank", perOp(rank, "coll.scheds_started"), 1)
				}
			case kindHalo:
				// Six halo columns and four ranks' allreduce per sweep
				// (plus one more reduction start per rank per batch
				// would show here if the overlap leaked a schedule).
				want("core.bytes_copied_per_op", r.pvarPerOp("core.bytes_copied"), 6*haloN*8)
				want("coll.scheds_started_per_op", r.pvarPerOp("coll.scheds_started"), haloNP)
			}
		}
	}
}

// TestCorruptedEchoRaisesFailRatio damages the last echo of every batch
// and expects verification to count it.
func TestCorruptedEchoRaisesFailRatio(t *testing.T) {
	w := workloads[0]
	cfg := smokeCfg(w)
	cfg.corrupt = true
	r, err := measure(w, cfg, newShared(w, 7, w.smokeBatch))
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != smokeBatches {
		t.Errorf("%d of %d corrupted batches failed verification", r.failed, smokeBatches)
	}
}

// TestTimerHygiene: a batch whose two stamps are over 1 % of what they
// time must be refused.
func TestTimerHygiene(t *testing.T) {
	w := workloads[0]
	cfg := runCfg{seed: 7, plan: plan{seconds: 0.01, batch: 1}, timer: time.Millisecond}
	if _, err := measure(w, cfg, newShared(w, 7, 1)); err == nil {
		t.Error("a 1-op batch under a 1 ms timer pair was accepted")
	}
}

func TestVerdict(t *testing.T) {
	lower := gated{Name: "op_us_p50", Better: "lower", Bound: 0.10}
	higher := gated{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		a, b []float64
		g    gated
		want string
	}{
		{[]float64{100, 101, 102}, []float64{103, 104, 105}, lower, "same"},
		{[]float64{100, 101, 102}, []float64{120, 121, 122}, lower, "worse"},
		{[]float64{100, 101, 102}, []float64{80, 81, 82}, lower, "better"},
		{[]float64{100, 101, 102}, []float64{80, 81, 82}, higher, "worse"},
		{[]float64{100, 101, 102}, []float64{120, 121, 122}, higher, "better"},
		// A round spread wider than the bound hides anything inside it.
		{[]float64{90, 100, 115}, []float64{100, 104, 105}, lower, "unresolved"},
		{[]float64{90, 100, 115}, []float64{112, 118, 119}, lower, "unresolved"},
		{[]float64{90, 100, 115}, []float64{150, 151, 152}, lower, "worse"},
	} {
		if _, got := verdict(c.a, c.b, c.g); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", c.a, c.b, c.g.Name, got, c.want)
		}
	}
}
