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

func TestPaperProfileOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrated profile timing skipped in -short mode")
	}
	// Under the 1999 calibration the Table 1 column ordering must hold
	// in SM mode: WMPI-C < Wsock < WMPI-J < MPICH-J, MPICH-C < MPICH-J.
	lat := func(impl Impl, p Platform) time.Duration {
		s := Spec{Impl: impl, Platform: p, Mode: SM, Paper1999: true,
			Sizes: []int{1}, Reps: 16, Warmup: 2}
		pts, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return pts[0].OneWay
	}
	wmpiC := lat(NativeC, WMPI)
	wmpiJ := lat(JavaOO, WMPI)
	mpichC := lat(NativeC, MPICH)
	mpichJ := lat(JavaOO, MPICH)
	if !(wmpiC < wmpiJ && mpichC < mpichJ) {
		t.Errorf("binding must cost more than native: WMPI %v vs %v, MPICH %v vs %v",
			wmpiC, wmpiJ, mpichC, mpichJ)
	}
	if !(wmpiC < mpichC) {
		t.Errorf("optimized profile must beat portable: %v vs %v", wmpiC, mpichC)
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
