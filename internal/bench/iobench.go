package bench

import (
	"fmt"
	"path/filepath"

	"gompi/mpi"
)

// IOPoint is one collective I/O measurement: every rank writes (then
// reads) Size bytes per operation through mpi.File's two-phase
// collective path, and the aggregate bandwidth across all ranks is
// reported.
type IOPoint struct {
	Size      int
	WriteMBps float64
	ReadMBps  float64
}

// IOBandwidth measures collective WriteAtAll/ReadAtAll bandwidth at np
// ranks: rank r owns the contiguous file block [r*size, (r+1)*size),
// which the 64 KiB aggregation stripes split across aggregator ranks,
// so the measurement covers the exchange phase and the filesystem
// phase together. Scratch files live under dir and are removed on
// close.
func IOBandwidth(np int, sizes []int, reps int, dir string) ([]IOPoint, error) {
	if reps <= 0 {
		reps = 4
	}
	out := make([]IOPoint, 0, len(sizes))
	for _, size := range sizes {
		var wsec, rsec float64
		path := filepath.Join(dir, fmt.Sprintf("iobench-%d.bin", size))
		err := mpi.Run(np, func(env *mpi.Env) error {
			w := env.CommWorld()
			f, err := w.OpenFile(path, mpi.ModeCreate|mpi.ModeRdwr|mpi.ModeDeleteOnClose)
			if err != nil {
				return err
			}
			defer f.Close()
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = byte(i)
			}
			off := int64(w.Rank() * size)
			// Warm the file (and the allocator) once before timing.
			if _, err := f.WriteAtAll(off, buf, 0, size, mpi.BYTE); err != nil {
				return err
			}
			if err := w.Barrier(); err != nil {
				return err
			}
			start := env.Wtime()
			for r := 0; r < reps; r++ {
				if _, err := f.WriteAtAll(off, buf, 0, size, mpi.BYTE); err != nil {
					return err
				}
			}
			if err := f.Sync(); err != nil {
				return err
			}
			if w.Rank() == 0 {
				wsec = env.Wtime() - start
			}
			if err := w.Barrier(); err != nil {
				return err
			}
			start = env.Wtime()
			for r := 0; r < reps; r++ {
				if _, err := f.ReadAtAll(off, buf, 0, size, mpi.BYTE); err != nil {
					return err
				}
			}
			if w.Rank() == 0 {
				rsec = env.Wtime() - start
			}
			return w.Barrier()
		})
		if err != nil {
			return nil, fmt.Errorf("io bench at %d bytes: %w", size, err)
		}
		p := IOPoint{Size: size}
		total := float64(np) * float64(size) * float64(reps)
		if wsec > 0 {
			p.WriteMBps = total / wsec / 1e6
		}
		if rsec > 0 {
			p.ReadMBps = total / rsec / 1e6
		}
		out = append(out, p)
	}
	return out, nil
}
