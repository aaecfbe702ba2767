// Package gompi's root benchmark file regenerates every table and figure
// of the paper's evaluation (§4) as testing.B benchmarks:
//
//	BenchmarkTable1_*   — Table 1: 1-byte message latency per environment
//	BenchmarkFig5_*     — Figure 5: PingPong bandwidth vs size, SM mode
//	BenchmarkFig6_*     — Figure 6: PingPong bandwidth vs size, DM mode
//	BenchmarkLinpack_*  — §4.6: native vs interpreted LINPACK Mflop/s
//	BenchmarkAblation_* — design-choice ablations
//
// Benchmarks run the bare modern stack by default; set GOMPI_BENCH_PAPER=1
// to apply the 1999 testbed calibration (JNI cost model, WMPI/MPICH
// software profiles, 10BaseT shaping). cmd/pingpong prints the same
// artifacts as full tables. The benchmark a change is judged by is the
// module under benchmark/ (benchmark/README.md), not this file.
package gompi

import (
	"fmt"
	"os"
	"testing"

	"gompi/internal/bench"
	"gompi/internal/linpack"
	"gompi/mpi"
	"gompi/mpi/typed"
)

func paperProfile() bool { return os.Getenv("GOMPI_BENCH_PAPER") == "1" }

// benchPingPong runs one environment/size cell and reports one-way
// latency and bandwidth.
func benchPingPong(b *testing.B, s bench.Spec, size int) {
	b.Helper()
	s.Sizes = []int{size}
	s.Reps = b.N
	if s.Reps < 4 {
		s.Reps = 4
	}
	if s.Reps > 2000 {
		s.Reps = 2000
	}
	s.Warmup = 2
	s.Paper1999 = paperProfile()
	pts, err := bench.Run(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(pts[0].OneWay.Nanoseconds())/1e3, "us/oneway")
	b.ReportMetric(pts[0].MBps, "MB/s")
	b.SetBytes(int64(size))
}

// table1Cells enumerates the five environments of Table 1.
func table1Cells() []bench.Spec {
	return []bench.Spec{
		{Impl: bench.Wsock},
		{Impl: bench.NativeC, Platform: bench.WMPI},
		{Impl: bench.JavaOO, Platform: bench.WMPI},
		{Impl: bench.NativeC, Platform: bench.MPICH},
		{Impl: bench.JavaOO, Platform: bench.MPICH},
	}
}

// BenchmarkTable1_SM reproduces Table 1's Shared Memory row.
func BenchmarkTable1_SM(b *testing.B) {
	for _, cell := range table1Cells() {
		cell := cell
		cell.Mode = bench.SM
		b.Run(cell.Label(), func(b *testing.B) { benchPingPong(b, cell, 1) })
	}
}

// BenchmarkTable1_DM reproduces Table 1's Distributed Memory row.
func BenchmarkTable1_DM(b *testing.B) {
	for _, cell := range table1Cells() {
		cell := cell
		cell.Mode = bench.DM
		b.Run(cell.Label(), func(b *testing.B) { benchPingPong(b, cell, 1) })
	}
}

// figureCurves enumerates the four MPI curves of Figures 5 and 6.
func figureCurves(mode bench.Mode) []bench.Spec {
	return []bench.Spec{
		{Impl: bench.NativeC, Platform: bench.WMPI, Mode: mode},
		{Impl: bench.JavaOO, Platform: bench.WMPI, Mode: mode},
		{Impl: bench.NativeC, Platform: bench.MPICH, Mode: mode},
		{Impl: bench.JavaOO, Platform: bench.MPICH, Mode: mode},
	}
}

// figureSizes is the message-size axis sampled by the figure benchmarks
// (cmd/pingpong sweeps all 21 powers of two).
var figureSizes = []int{1, 1 << 10, 1 << 16, 1 << 20}

// BenchmarkFig5 reproduces Figure 5: PingPong in SM mode.
func BenchmarkFig5(b *testing.B) {
	for _, curve := range figureCurves(bench.SM) {
		for _, size := range figureSizes {
			curve, size := curve, size
			b.Run(fmt.Sprintf("%s/size=%d", curve.Label(), size), func(b *testing.B) {
				benchPingPong(b, curve, size)
			})
		}
	}
}

// BenchmarkFig6 reproduces Figure 6: PingPong in DM mode.
func BenchmarkFig6(b *testing.B) {
	for _, curve := range figureCurves(bench.DM) {
		for _, size := range figureSizes {
			curve, size := curve, size
			b.Run(fmt.Sprintf("%s/size=%d", curve.Label(), size), func(b *testing.B) {
				benchPingPong(b, curve, size)
			})
		}
	}
}

// BenchmarkFileIO measures the parallel I/O subsystem: 4-rank
// collective two-phase WriteAtAll/ReadAtAll bandwidth, reported as
// aggregate MB/s across ranks.
func BenchmarkFileIO(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20} {
		size := size
		b.Run(fmt.Sprintf("perRank=%d", size), func(b *testing.B) {
			pts, err := bench.IOBandwidth(4, []int{size}, b.N, b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(pts[0].WriteMBps, "write-MB/s")
			b.ReportMetric(pts[0].ReadMBps, "read-MB/s")
		})
	}
}

// BenchmarkLinpack_Native reproduces the native side of §4.6.
func BenchmarkLinpack_Native(b *testing.B) {
	const n = 200
	var last linpack.Result
	for i := 0; i < b.N; i++ {
		r, err := linpack.RunNative(n)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Mflops, "Mflop/s")
}

// BenchmarkLinpack_Interpreted reproduces the JVM side of §4.6.
func BenchmarkLinpack_Interpreted(b *testing.B) {
	const n = 200
	var last linpack.Result
	for i := 0; i < b.N; i++ {
		r, err := linpack.RunInterpreted(n)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Mflops, "Mflop/s")
}

// BenchmarkAblation_EagerLimit sweeps the eager/rendezvous threshold at a
// fixed 256 KB message — where the protocol switch lands on the curve.
func BenchmarkAblation_EagerLimit(b *testing.B) {
	for _, limit := range []int{-1, 1 << 10, 1 << 16, 1 << 20} {
		limit := limit
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			s := bench.Spec{Impl: bench.NativeC, Platform: bench.WMPI, Mode: bench.SM, EagerLimit: limit}
			benchPingPong(b, s, 256<<10)
		})
	}
}

// BenchmarkAblation_BindingOverhead measures the OO binding with and
// without the emulated JNI crossing — the paper's central comparison,
// isolated from the transport.
func BenchmarkAblation_BindingOverhead(b *testing.B) {
	for _, paper := range []bool{false, true} {
		paper := paper
		name := "modern"
		if paper {
			name = "jni1999"
		}
		b.Run(name, func(b *testing.B) {
			s := bench.Spec{Impl: bench.JavaOO, Platform: bench.WMPI, Mode: bench.SM, Paper1999: paper}
			s.Sizes = []int{1}
			s.Reps = b.N
			if s.Reps < 4 {
				s.Reps = 4
			}
			if s.Reps > 2000 {
				s.Reps = 2000
			}
			s.Warmup = 2
			pts, err := bench.Run(s)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(pts[0].OneWay.Nanoseconds())/1e3, "us/oneway")
		})
	}
}

// BenchmarkAblation_Allreduce compares the recursive-doubling allreduce
// against the gather-fold-broadcast path the runtime uses for
// non-commutative operations.
func BenchmarkAblation_Allreduce(b *testing.B) {
	sumNC := mpi.NewOp(func(in, inout any) {
		a := in.([]float64)
		o := inout.([]float64)
		for i := range o {
			o[i] += a[i]
		}
	}, false) // declared non-commutative: forces rank-ordered reduce+bcast
	for _, algo := range []struct {
		name string
		op   *mpi.Op
	}{
		{"recursive-doubling", mpi.SUM},
		{"reduce-bcast", sumNC},
	} {
		algo := algo
		b.Run(algo.name, func(b *testing.B) {
			const np, width = 4, 1024
			err := mpi.Run(np, func(env *mpi.Env) error {
				w := env.CommWorld()
				in := make([]float64, width)
				out := make([]float64, width)
				for i := range in {
					in[i] = float64(w.Rank() + i)
				}
				for i := 0; i < b.N; i++ {
					if err := w.Allreduce(in, 0, out, 0, width, mpi.DOUBLE, algo.op); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblation_Transport compares the shm and TCP-loopback devices
// carrying the same binding traffic — the SM/DM hardware split isolated
// from the 1999 calibration.
func BenchmarkAblation_Transport(b *testing.B) {
	for _, tcp := range []bool{false, true} {
		tcp := tcp
		name := "shm"
		if tcp {
			name = "tcp"
		}
		b.Run(name, func(b *testing.B) {
			mode := bench.SM
			if tcp {
				mode = bench.DM
			}
			s := bench.Spec{Impl: bench.JavaOO, Platform: bench.WMPI, Mode: mode}
			benchPingPong(b, s, 4096)
		})
	}
}

// BenchmarkTypedVsClassic runs the same ping-pong exchange through the
// classic mpiJava-style API and the typed generics API. The typed layer
// resolves datatypes through the inference cache on every call; the two
// curves must coincide (the acceptance bar is 5%), showing inference
// adds no measurable per-message cost over the classic path.
func BenchmarkTypedVsClassic(b *testing.B) {
	for _, elems := range []int{1, 1 << 10, 1 << 16} {
		elems := elems
		b.Run(fmt.Sprintf("classic/elems=%d", elems), func(b *testing.B) {
			err := mpi.Run(2, func(env *mpi.Env) error {
				w := env.CommWorld()
				buf := make([]float64, elems)
				peer := 1 - w.Rank()
				for i := 0; i < b.N; i++ {
					if w.Rank() == 0 {
						if err := w.Send(buf, 0, elems, mpi.DOUBLE, peer, 3); err != nil {
							return err
						}
						if _, err := w.Recv(buf, 0, elems, mpi.DOUBLE, peer, 3); err != nil {
							return err
						}
					} else {
						if _, err := w.Recv(buf, 0, elems, mpi.DOUBLE, peer, 3); err != nil {
							return err
						}
						if err := w.Send(buf, 0, elems, mpi.DOUBLE, peer, 3); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(elems * 8 * 2))
		})
		// typed: the preallocated-buffer hot path — the payload lands
		// directly in buf with no staging allocation or unpack copy.
		b.Run(fmt.Sprintf("typed/elems=%d", elems), func(b *testing.B) {
			err := mpi.Run(2, func(env *mpi.Env) error {
				w := env.CommWorld()
				buf := make([]float64, elems)
				peer := 1 - w.Rank()
				for i := 0; i < b.N; i++ {
					if w.Rank() == 0 {
						if err := typed.Send(w, buf, peer, 3); err != nil {
							return err
						}
						if _, err := typed.Recv(w, buf, peer, 3); err != nil {
							return err
						}
					} else {
						if _, err := typed.Recv(w, buf, peer, 3); err != nil {
							return err
						}
						if err := typed.Send(w, buf, peer, 3); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(elems * 8 * 2))
		})
	}
}

// BenchmarkDerivedTypePack measures the datatype engine's strided pack
// path against the contiguous fast path.
func BenchmarkDerivedTypePack(b *testing.B) {
	err := mpi.Run(2, func(env *mpi.Env) error {
		w := env.CommWorld()
		const n = 256
		col, err := mpi.TypeVector(n, 1, n, mpi.DOUBLE)
		if err != nil {
			return err
		}
		col.Commit()
		mat := make([]float64, n*n)
		if w.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				if err := w.Send(mat, 0, 1, col, 1, 1); err != nil {
					return err
				}
			}
			return nil
		}
		colIn := make([]float64, n)
		for i := 0; i < b.N; i++ {
			if _, err := w.Recv(colIn, 0, n, mpi.DOUBLE, 0, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
