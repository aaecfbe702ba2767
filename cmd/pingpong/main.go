// pingpong regenerates the paper's communications evaluation (§4):
// Table 1 (1-byte message latencies across five environments and two
// modes), Figures 5 and 6 (PingPong bandwidth against message size in SM
// and DM modes), and the §4.6 LINPACK Mflop/s comparison.
//
// Usage:
//
//	pingpong -table1              # Table 1, modern stack
//	pingpong -table1 -paper1999   # Table 1 under the era calibration
//	pingpong -fig 5 -paper1999    # Figure 5 curves (SM)
//	pingpong -fig 6 -paper1999    # Figure 6 curves (DM)
//	pingpong -linpack             # §4.6 LINPACK comparison
//
// The -paper1999 flag enables the calibration of internal/bench
// (calib.go holds the constants, shaped.go charges them): the
// JNI-crossing cost model, the WMPI/MPICH software-path profiles and
// the 10BaseT link shaping that recover the published magnitudes.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"gompi/internal/bench"
	"gompi/internal/linpack"
)

func main() {
	table1 := flag.Bool("table1", false, "reproduce Table 1 (1-byte latencies)")
	fig := flag.Int("fig", 0, "reproduce figure 5 (SM) or 6 (DM)")
	linpackFlag := flag.Bool("linpack", false, "reproduce the §4.6 LINPACK comparison")
	paper := flag.Bool("paper1999", false, "apply the 1999 testbed calibration")
	reps := flag.Int("reps", 64, "round trips per message size")
	maxSize := flag.Int("max", 1<<20, "largest message size for figure sweeps")
	n := flag.Int("n", 500, "LINPACK problem order")
	flag.Parse()

	ran := false
	if *table1 {
		ran = true
		runTable1(*paper, *reps)
	}
	if *fig == 5 || *fig == 6 {
		ran = true
		runFigure(*fig, *paper, *maxSize, *reps)
	}
	if *linpackFlag {
		ran = true
		runLinpack(*n)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func runTable1(paper bool, reps int) {
	label := "modern stack"
	if paper {
		label = "1999 calibration"
	}
	fmt.Printf("Table 1: time for 1-byte messages (%s)\n", label)
	rows, err := bench.Table1(paper, reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pingpong: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%-4s", "")
	for _, r := range rows {
		fmt.Printf(" %10s", r.Label)
	}
	fmt.Println()
	for _, mode := range []string{"SM", "DM"} {
		fmt.Printf("%-4s", mode)
		for _, r := range rows {
			v := r.SM
			if mode == "DM" {
				v = r.DM
			}
			fmt.Printf(" %8.1fus", float64(v.Nanoseconds())/1e3)
		}
		fmt.Println()
	}
	if paper {
		fmt.Println("\npaper reported (us):")
		fmt.Println("         Wsock     WMPI-C     WMPI-J    MPICH-C    MPICH-J")
		fmt.Println("SM       144.8       67.2      161.4      148.7      374.6")
		fmt.Println("DM       244.9      623.9      689.7      679.1      961.2")
	}
}

func runFigure(fig int, paper bool, maxSize, reps int) {
	mode := bench.SM
	if fig == 6 {
		mode = bench.DM
	}
	fmt.Printf("Figure %d: PingPong in %s mode", fig, mode)
	if paper {
		fmt.Printf(" (1999 calibration)")
	}
	fmt.Println()
	curves, err := bench.Figure(mode, paper, maxSize, reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pingpong: %v\n", err)
		os.Exit(1)
	}
	labels := make([]string, 0, len(curves))
	for l := range curves {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	fmt.Printf("%10s", "size")
	for _, l := range labels {
		fmt.Printf(" %12s", l+" MB/s")
	}
	fmt.Println()
	n := len(curves[labels[0]])
	for i := 0; i < n; i++ {
		fmt.Printf("%10d", curves[labels[0]][i].Size)
		for _, l := range labels {
			fmt.Printf(" %12.3f", curves[l][i].MBps)
		}
		fmt.Println()
	}
	fmt.Printf("\n1-byte one-way latencies:")
	for _, l := range labels {
		fmt.Printf("  %s=%.1fus", l, float64(curves[l][0].OneWay.Nanoseconds())/1e3)
	}
	fmt.Println()
}

func runLinpack(n int) {
	fmt.Printf("LINPACK order %d (paper §4.6: native 62 vs JVM 22 Mflop/s on a P6-200)\n", n)
	start := time.Now()
	nat, err := linpack.RunNative(n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pingpong: linpack: %v\n", err)
		os.Exit(1)
	}
	interp, err := linpack.RunInterpreted(n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pingpong: linpack: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  native      : %8.1f Mflop/s  (residual %.2e)\n", nat.Mflops, nat.Residual)
	fmt.Printf("  interpreted : %8.1f Mflop/s  (residual %.2e)\n", interp.Mflops, interp.Residual)
	fmt.Printf("  ratio       : %8.2fx   (paper: %.2fx)\n", nat.Mflops/interp.Mflops, 62.0/22.0)
	fmt.Printf("  total time  : %v\n", time.Since(start).Round(time.Millisecond))
}
