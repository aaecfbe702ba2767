package core

import (
	"runtime"
	"testing"

	"gompi/internal/transport"
)

// This file uses nothing a parent checkout lacks: copy it there to get
// the other column.

// BenchmarkTCPRoundTrip is a lent send met by a receive-into, there and
// back over a loopback mesh: 8 B prices a control-frame exchange (RTS,
// CTS and a short DATA frame each way through the buffered reader), the
// pair around 16 KiB sits on either side of the shortest frame that
// lands, and the rest is bandwidth.
func BenchmarkTCPRoundTrip(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"8B", 8}, {"16KiB", 16 << 10}, {"16KiB+1", 16<<10 + 1}, {"64KiB+8", 64<<10 + 8}, {"1MiB", 1 << 20}, {"4MiB", 4 << 20}} {
		b.Run(c.name, func(b *testing.B) {
			devs, err := transport.NewLoopbackJob(2)
			if err != nil {
				b.Fatal(err)
			}
			procs := []*Proc{NewProc(devs[0], Config{}), NewProc(devs[1], Config{})}
			defer procs[0].Close()
			defer procs[1].Close()
			// One side of a round trip: rank me sends first or answers.
			half := func(me int, out, in []byte, first bool) error {
				p, peer := procs[me], 1-me
				rreq := p.IrecvInto(0, int32(peer), 1, in, 1)
				if !first {
					rreq.Wait()
				}
				sreq, err := p.IsendLent(0, me, peer, 1, out, ModeStandard)
				if err != nil {
					return err
				}
				sreq.Wait()
				rreq.Wait()
				sreq.Recycle()
				rreq.Recycle()
				return nil
			}
			echoed := make(chan error, 1)
			go func() {
				out, in := make([]byte, c.size), make([]byte, c.size)
				for i := 0; i < b.N; i++ {
					if err := half(1, out, in, false); err != nil {
						echoed <- err
						return
					}
				}
				echoed <- nil
			}()
			out, in := pattern(c.size, 1), make([]byte, c.size)
			b.SetBytes(2 * int64(c.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := half(0, out, in, true); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-echoed; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkLentRendezvous is one 256 KiB lent send met by a receive-into,
// one way, with the receive posted before the send or once the message
// waits unexpected, over a pair reached by reference and over a loopback
// mesh. By reference the RTS carries the loan, and the message is one
// frame; over tcp it is RTS, CTS and a DATA frame that lands.
func BenchmarkLentRendezvous(b *testing.B) {
	const size = 256 << 10
	for _, medium := range []string{"chan", "tcp"} {
		for _, order := range []string{"preposted", "unexpected"} {
			b.Run(medium+"/"+order, func(b *testing.B) {
				devs := transport.NewShmJob(2, 0)
				if medium == "tcp" {
					var err error
					if devs, err = transport.NewLoopbackJob(2); err != nil {
						b.Fatal(err)
					}
				}
				p0, p1 := NewProc(devs[0], Config{}), NewProc(devs[1], Config{})
				defer p0.Close()
				defer p1.Close()
				src, dst := pattern(size, 1), make([]byte, size)
				b.SetBytes(size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var rreq *Request
					if order == "preposted" {
						rreq = p1.IrecvInto(0, 0, 1, dst, 1)
					}
					sreq, err := p0.IsendLent(0, 0, 1, 1, src, ModeStandard)
					if err != nil {
						b.Fatal(err)
					}
					if rreq == nil {
						for p1.PendingUnexpected() == 0 {
							runtime.Gosched()
						}
						rreq = p1.IrecvInto(0, 0, 1, dst, 1)
					}
					if st := rreq.Wait(); st.Err != nil || st.Bytes != size {
						b.Fatalf("receive: %+v", st)
					}
					sreq.Wait()
					sreq.Recycle()
					rreq.Recycle()
				}
			})
		}
	}
}
