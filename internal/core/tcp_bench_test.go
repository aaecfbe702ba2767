package core

import (
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
