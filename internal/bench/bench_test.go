package bench

import (
	"testing"
	"time"
)

// The harness tests run tiny unshaped sweeps: they validate plumbing and
// invariants, not 1999 magnitudes (`pingpong -table1 -paper1999` prints
// those).

func TestSpecLabels(t *testing.T) {
	cases := map[string]Spec{
		"Wsock":   {Impl: Wsock},
		"WMPI-C":  {Impl: NativeC, Platform: WMPI},
		"WMPI-J":  {Impl: JavaOO, Platform: WMPI},
		"MPICH-C": {Impl: NativeC, Platform: MPICH},
		"MPICH-J": {Impl: JavaOO, Platform: MPICH},
	}
	for want, s := range cases {
		if got := s.Label(); got != want {
			t.Errorf("label: got %q want %q", got, want)
		}
	}
}

func TestFigureSizes(t *testing.T) {
	sizes := FigureSizes(1 << 20)
	if len(sizes) != 21 || sizes[0] != 1 || sizes[20] != 1<<20 {
		t.Fatalf("sizes: %v", sizes)
	}
}

func runQuick(t *testing.T, s Spec) []Point {
	t.Helper()
	s.Sizes = []int{1, 1024}
	s.Reps = 8
	s.Warmup = 2
	pts, err := Run(s)
	if err != nil {
		t.Fatalf("%s/%s: %v", s.Label(), s.Mode, err)
	}
	if len(pts) != 2 {
		t.Fatalf("%s: %d points", s.Label(), len(pts))
	}
	for _, p := range pts {
		if p.OneWay <= 0 {
			t.Fatalf("%s size %d: non-positive latency %v", s.Label(), p.Size, p.OneWay)
		}
	}
	return pts
}

func TestAllEnvironmentsRun(t *testing.T) {
	for _, impl := range []Impl{Wsock, NativeC, JavaOO} {
		for _, mode := range []Mode{SM, DM} {
			runQuick(t, Spec{Impl: impl, Platform: WMPI, Mode: mode})
		}
	}
}

func TestBandwidthGrowsWithSize(t *testing.T) {
	pts := runQuick(t, Spec{Impl: NativeC, Platform: WMPI, Mode: SM})
	if pts[1].MBps <= pts[0].MBps {
		t.Errorf("bandwidth did not grow: %v then %v MB/s", pts[0].MBps, pts[1].MBps)
	}
}

// TestPaperProfileOrdering checks Table 1's column ordering on the
// calibrated model, which is a pure function of the spec, and one
// property of the measured ladder that machine load cannot break: no
// charged one-way time comes in under what the model charges on its
// critical path, because spinWait never returns early. (Comparing the
// measured times with each other instead failed under parallel test
// load.)
func TestPaperProfileOrdering(t *testing.T) {
	spec := func(impl Impl, p Platform) Spec {
		return Spec{Impl: impl, Platform: p, Mode: SM, Paper1999: true, Sizes: []int{1}, Reps: 16, Warmup: 2}
	}
	// charge is what one one-way 1-byte message is charged on the
	// critical path of the ping-pong: the link profile of its one frame
	// and the sender's binding crossing (the receiver's overlaps the
	// link charge).
	charge := func(s Spec) time.Duration {
		lp := linkProfile(s.Impl, s.Platform, s.Mode, s.Paper1999)
		return lp.PerMessage + lp.Latency + overheadFor(s)
	}
	// model is calib.go's one-way estimate: both crossings and the
	// serialization of the byte.
	model := func(s Spec) time.Duration {
		lp := linkProfile(s.Impl, s.Platform, s.Mode, s.Paper1999)
		return lp.PerMessage + lp.Latency + time.Duration(float64(time.Second)/lp.BytesPerSec) + 2*overheadFor(s)
	}
	wmpiC, wmpiJ := spec(NativeC, WMPI), spec(JavaOO, WMPI)
	mpichC, mpichJ := spec(NativeC, MPICH), spec(JavaOO, MPICH)
	if !(model(wmpiC) < model(wmpiJ) && model(mpichC) < model(mpichJ)) {
		t.Errorf("binding must cost more than native: WMPI %v vs %v, MPICH %v vs %v",
			model(wmpiC), model(wmpiJ), model(mpichC), model(mpichJ))
	}
	if !(model(wmpiC) < model(mpichC)) {
		t.Errorf("optimized profile must beat portable: %v vs %v", model(wmpiC), model(mpichC))
	}
	if testing.Short() {
		return
	}
	for _, s := range []Spec{wmpiC, wmpiJ, mpichC, mpichJ} {
		pts, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if got, floor := pts[0].OneWay, charge(s); got < floor {
			t.Errorf("%s: measured one-way %v is under the %v the model charges", s.Label(), got, floor)
		}
	}
}

func TestCalibrationConstants(t *testing.T) {
	if bindingCost(WMPI) >= bindingCost(MPICH) {
		t.Error("the paper's MPICH/Solaris JVM crossing must cost more than NT's")
	}
	lp := linkProfile(NativeC, WMPI, DM, true)
	if lp.BytesPerSec > 1.25e6 || lp.BytesPerSec < 1e6 {
		t.Errorf("DM link must model 10BaseT: %v B/s", lp.BytesPerSec)
	}
	if lp = linkProfile(NativeC, MPICH, SM, true); !lp.StagingCopy {
		t.Error("portable profile must pay the staging copy")
	}
	if lp = linkProfile(JavaOO, WMPI, SM, false); !lp.Zero() {
		t.Error("modern profile must inject nothing")
	}
}
