package coll

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"gompi/internal/dtype"
)

// planForm is one collective under test: build compiles its plan over
// inputs bound by reference, and load (re)fills those inputs with this
// member's deterministic contribution — before every activation, since
// the reductions overwrite theirs with the result.
type planForm struct {
	name  string
	build func(c *Comm) (p *Plan, load func(), err error)
}

// pattern is n bytes that depend on the rank that contributes them.
func pattern(rank, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rank*31 + i)
	}
	return b
}

// operand is this rank's reduction contribution: n I64 elements.
func operand(rank, n int) []byte {
	b := make([]byte, 0, 8*n)
	for i := 0; i < n; i++ {
		b = binary.LittleEndian.AppendUint64(b, uint64(rank*1000+i))
	}
	return b
}

// reduction adapts the four reduction constructors, which share their
// one input: the accumulator.
func reduction(n int, plan func(c *Comm, acc *[]byte) (*Plan, error)) func(c *Comm) (*Plan, func(), error) {
	return func(c *Comm) (*Plan, func(), error) {
		var acc []byte
		p, err := plan(c, &acc)
		return p, func() { acc = operand(c.Rank, n) }, err
	}
}

// planForms lists all ten plan constructors. Payloads straddle the test
// engine's 256-byte eager limit, so both protocols — and both allreduce
// schedules — are driven.
var planForms = []planForm{
	{"Barrier", func(c *Comm) (*Plan, func(), error) {
		return c.BarrierPlan(), func() {}, nil
	}},
	{"Bcast", func(c *Comm) (*Plan, func(), error) {
		root := c.Size - 1
		var data []byte
		p, err := c.BcastPlan(root, &data)
		return p, func() {
			data = nil
			if c.Rank == root {
				data = pattern(root, 300)
			}
		}, err
	}},
	{"Gather", func(c *Comm) (*Plan, func(), error) {
		var mine []byte
		p, err := c.GatherPlan(c.Size/2, &mine)
		return p, func() { mine = pattern(c.Rank, 100+c.Rank) }, err
	}},
	{"Scatter", func(c *Comm) (*Plan, func(), error) {
		var parts [][]byte
		p, err := c.ScatterPlan(0, &parts)
		return p, func() {
			parts = make([][]byte, c.Size)
			for r := range parts {
				parts[r] = pattern(r, 90+10*r)
			}
		}, err
	}},
	{"Allgather", func(c *Comm) (*Plan, func(), error) {
		var mine []byte
		return c.AllgatherPlan(&mine), func() { mine = pattern(c.Rank, 200+40*c.Rank) }, nil
	}},
	{"Alltoall", func(c *Comm) (*Plan, func(), error) {
		parts := make([][]byte, c.Size)
		p, err := c.AlltoallPlan(parts)
		return p, func() {
			for r := range parts {
				parts[r] = pattern(c.Rank*c.Size+r, 250+4*r)
			}
		}, err
	}},
	{"Reduce", reduction(40, func(c *Comm, acc *[]byte) (*Plan, error) {
		return c.ReducePlan(c.Size-1, acc, Sum, dtype.I64)
	})},
	{"Allreduce", reduction(64, func(c *Comm, acc *[]byte) (*Plan, error) {
		return c.AllreducePlan(acc, nil, 64, 8, Sum, dtype.I64)
	})},
	// The contribution left where it lies (a buffer the schedule only
	// reads), a length the halving splits unevenly; then (value, index)
	// pairs, which no split may tear.
	{"AllreduceFromSrc", func(c *Comm) (*Plan, func(), error) {
		var acc, src []byte
		p, err := c.AllreducePlan(&acc, &src, 97, 8, Sum, dtype.I64)
		return p, func() { src, acc = operand(c.Rank, 97), make([]byte, 8*97) }, err
	}},
	{"AllreducePairs", reduction(2*45, func(c *Comm, acc *[]byte) (*Plan, error) {
		return c.AllreducePlan(acc, nil, 45, 16, MaxLoc, dtype.I64)
	})},
	{"Scan", reduction(5, func(c *Comm, acc *[]byte) (*Plan, error) {
		return c.ScanPlan(false, acc, Sum, dtype.I64)
	})},
	{"Exscan", reduction(5, func(c *Comm, acc *[]byte) (*Plan, error) {
		return c.ScanPlan(true, acc, Max, dtype.I64)
	})},
	{"ReduceScatter", func(c *Comm) (*Plan, func(), error) {
		counts := make([]int, c.Size)
		total := 0
		for r := range counts {
			counts[r] = r + 1
			total += r + 1
		}
		return reduction(total, func(c *Comm, acc *[]byte) (*Plan, error) {
			return c.ReduceScatterPlan(acc, counts, Sum, dtype.I64)
		})(c)
	}},
}

// snapshot deep-copies a plan result ([]byte, a reduction's *[]byte,
// [][]byte or nil): results may alias inputs that the next activation
// overwrites.
func snapshot(res any) any {
	switch v := res.(type) {
	case *[]byte:
		return append([]byte{}, *v...)
	case []byte:
		return append([]byte{}, v...)
	case [][]byte:
		out := make([][]byte, len(v))
		for i, b := range v {
			out[i] = append([]byte{}, b...)
		}
		return out
	}
	return res
}

// TestPlanFormsAgree: every collective gives byte-identical results
// whichever way its plan is executed — Run (the caller drives the
// schedule), Start+Wait (the waiter drives it) and Persist, then
// 3×(Rearm+Start) (the persisted schedule runs again, re-reading the
// bound inputs) — over power-of-two and odd group sizes.
func TestPlanFormsAgree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7} {
		for _, f := range planForms {
			runGroup(t, n, func(c *Comm) (any, error) {
				where := fmt.Sprintf("%s np=%d rank %d", f.name, n, c.Rank)

				p, load, err := f.build(c)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", where, err)
				}
				load()
				res, err := p.Run()
				if err != nil {
					return nil, fmt.Errorf("%s Run: %w", where, err)
				}
				want := snapshot(res)

				agree := func(form string, req *Request) error {
					res, err := req.Wait()
					if err != nil {
						return fmt.Errorf("%s %s: %w", where, form, err)
					}
					if got := snapshot(res); !reflect.DeepEqual(got, want) {
						return fmt.Errorf("%s %s = %v, Run gave %v", where, form, got, want)
					}
					return nil
				}

				if p, load, err = f.build(c); err != nil {
					return nil, fmt.Errorf("%s: %w", where, err)
				}
				load()
				if err := agree("Start", p.Start()); err != nil {
					return nil, err
				}

				if p, load, err = f.build(c); err != nil {
					return nil, fmt.Errorf("%s: %w", where, err)
				}
				p.Persist()
				for round := 1; round <= 3; round++ {
					load()
					p.Rearm()
					if err := agree(fmt.Sprintf("persistent activation %d", round), p.Start()); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
		}
	}
}
