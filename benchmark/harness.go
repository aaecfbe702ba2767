package main

import (
	"fmt"
	"time"
)

// A rankOp is one rank's side of a workload. It owns the buffers made
// from the seed; the program under test only ever sees those buffers.
type rankOp interface {
	// prepare stamps or resets the buffers for batch b. It runs outside
	// the timed span.
	prepare(b int)
	// run issues n ops back to back. sp is non-nil on rank 0 of a
	// traced run, and only there does an op take per-op time stamps.
	run(n int, sp *spanLog) error
	// check verifies the outputs the batch left behind and returns how
	// many verifications failed. It runs outside the timed span.
	check() int
}

// plan says how long a run measures and how it is cut into batches.
type plan struct {
	// seconds is the length of the timed region; a warm-up of a tenth
	// of it runs first.
	seconds float64
	// batch is the number of ops between two time stamps. 0 lets the
	// warm-up double it until a batch takes calibBatch (the ladder
	// rungs, whose op cost varies with the workload's size).
	batch int
	// smoke runs one warm-up batch and three timed ones whatever the
	// clock says, so that tests take milliseconds and counts repeat.
	smoke bool
}

const (
	calibBatch      = 5 * time.Millisecond
	minTimedBatches = 5
	smokeBatches    = 3
)

type phase int

const (
	phaseStop phase = iota
	phaseWarm
	phaseTimed
)

// ctlMsg is what rank 0 tells the other ranks before each batch.
type ctlMsg struct {
	ph phase
	n  int
}

// harness drives the ranks of one run through warm-up and timed
// batches. Rank 0 holds the clock: it stamps each batch, decides when
// the region is over and tells the others, over Go channels rather than
// MPI messages so that the engine's counters see the workload's traffic
// and nothing else. All workloads are closed loops with one operation
// outstanding per rank; the ranks are goroutines of this process.
type harness struct {
	np   int
	plan plan
	ctl  []chan ctlMsg

	// Rank 0's results.
	batchUS []float64     // per timed batch: wall time ÷ ops, µs
	ops     int64         // ops in the timed region
	region  time.Duration // first timed batch's start → last one's end
	timer   time.Duration // cost of one time.Now pair, for the hygiene check

	failed []int64 // per rank: verifications failed in timed batches
}

func newHarness(np int, p plan, timerPair time.Duration) *harness {
	h := &harness{np: np, plan: p, timer: timerPair, failed: make([]int64, np)}
	h.ctl = make([]chan ctlMsg, np)
	for r := 1; r < np; r++ {
		h.ctl[r] = make(chan ctlMsg, 1)
	}
	return h
}

func (h *harness) tell(m ctlMsg) {
	for r := 1; r < h.np; r++ {
		h.ctl[r] <- m
	}
}

// lead is rank 0's loop. mark(true) is called when the timed region
// starts and mark(false) when it ends, for counter snapshots.
func (h *harness) lead(op rankOp, sp *spanLog, mark func(start bool)) (err error) {
	stopped := false
	defer func() {
		if !stopped { // an error path: release the followers
			h.tell(ctlMsg{ph: phaseStop})
		}
	}()
	n := h.plan.batch
	calibrating := n == 0
	if calibrating {
		n = 1
	}
	warmFor := time.Duration(h.plan.seconds * 0.1 * float64(time.Second))
	timedFor := time.Duration(h.plan.seconds * float64(time.Second))

	ph := phaseWarm
	phaseStart := time.Now()
	var regionStart, regionEnd time.Time
	batches := 0 // in the current phase
	for b := 0; ; b++ {
		elapsed := time.Since(phaseStart)
		switch ph {
		case phaseWarm:
			done := elapsed >= warmFor && !calibrating
			if h.plan.smoke {
				done = batches >= 1
			}
			if done {
				ph, batches = phaseTimed, 0
				mark(true)
				regionStart = time.Now()
				phaseStart = regionStart
			}
		case phaseTimed:
			done := elapsed >= timedFor && batches >= minTimedBatches
			if h.plan.smoke {
				done = batches >= smokeBatches
			}
			if done {
				ph = phaseStop
			}
		}
		h.tell(ctlMsg{ph: ph, n: n})
		if ph == phaseStop {
			stopped = true
			break
		}
		op.prepare(b)
		t0 := time.Now()
		if err := op.run(n, sp); err != nil {
			return fmt.Errorf("rank 0, batch %d: %w", b, err)
		}
		t1 := time.Now()
		d := t1.Sub(t0)
		bad := op.check()
		batches++
		if ph == phaseTimed {
			// Timer hygiene: the stamps around a batch must stay under
			// 1 % of what they time. Per-op stamps exist in traced runs
			// only.
			if !h.plan.smoke && h.timer*100 > d {
				return fmt.Errorf("batch of %d ops took %v: the %v timer pair is over 1%% of it", n, d, h.timer)
			}
			h.batchUS = append(h.batchUS, float64(d)/float64(n)/1e3)
			h.ops += int64(n)
			h.failed[0] += int64(bad)
			regionEnd = t1
		} else if calibrating {
			if d >= calibBatch || h.plan.smoke {
				calibrating = false
			} else {
				n *= 2
			}
		}
	}
	mark(false)
	h.region = regionEnd.Sub(regionStart)
	return nil
}

// follow is the loop of every rank but 0.
func (h *harness) follow(rank int, op rankOp, mark func(start bool)) error {
	timed := false
	for b := 0; ; b++ {
		m := <-h.ctl[rank]
		if m.ph == phaseStop {
			if timed {
				mark(false)
			}
			return nil
		}
		if m.ph == phaseTimed && !timed {
			timed = true
			mark(true)
		}
		op.prepare(b)
		if err := op.run(m.n, nil); err != nil {
			return fmt.Errorf("rank %d, batch %d: %w", rank, b, err)
		}
		if bad := op.check(); m.ph == phaseTimed {
			h.failed[rank] += int64(bad)
		}
	}
}

func (h *harness) failures() int64 {
	var n int64
	for _, f := range h.failed {
		n += f
	}
	return n
}

// timerPair measures what one time.Now pair costs: the overhead the
// harness adds to every batch, and a traced run to every span.
func timerPair() time.Duration {
	const n = 20000
	best := time.Duration(1 << 62)
	for try := 0; try < 5; try++ {
		t0 := time.Now()
		var last time.Time
		for i := 0; i < n; i++ {
			last = time.Now()
			last = time.Now()
		}
		if d := last.Sub(t0) / n; d < best {
			best = d
		}
	}
	return best
}
