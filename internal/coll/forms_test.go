package coll

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"gompi/internal/dtype"
)

// planForm is one collective under test: build compiles its plan over
// inputs bound by reference, load (re)fills those inputs with this
// member's deterministic contribution — before every activation, since
// the reductions overwrite theirs with the result — and result reads
// what an activation left where the plan delivers.
type planForm struct {
	name  string
	build func(c *Comm) (p *Plan, load func(), result func() any, err error)
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
// one input, the accumulator, where they leave their result.
func reduction(n int, plan func(c *Comm, acc *[]byte) (*Plan, error)) func(c *Comm) (*Plan, func(), func() any, error) {
	return func(c *Comm) (*Plan, func(), func() any, error) {
		var acc []byte
		p, err := plan(c, &acc)
		return p, func() { acc = operand(c.Rank, n) }, func() any { return acc }, err
	}
}

// planForms lists all ten plan constructors. Payloads straddle the test
// engine's 256-byte eager limit, so both protocols — and both allreduce
// schedules — are driven.
var planForms = []planForm{
	{"Barrier", func(c *Comm) (*Plan, func(), func() any, error) {
		return c.BarrierPlan(), func() {}, func() any { return nil }, nil
	}},
	{"Bcast", func(c *Comm) (*Plan, func(), func() any, error) {
		root := c.Size - 1
		var data []byte
		p, err := c.BcastPlan(root, one(&data))
		return p, func() {
			data = nil
			if c.Rank == root {
				data = pattern(root, 300)
			}
		}, func() any { return data }, err
	}},
	{"Gather", func(c *Comm) (*Plan, func(), func() any, error) {
		var mine []byte
		out := make([][]byte, c.Size)
		p, err := c.GatherPlan(c.Size/2, one(&mine), each(&out))
		return p, func() { mine = pattern(c.Rank, 100+c.Rank) }, func() any { return out }, err
	}},
	{"Scatter", func(c *Comm) (*Plan, func(), func() any, error) {
		var parts [][]byte
		var mine []byte
		p, err := c.ScatterPlan(0, each(&parts), one(&mine))
		return p, func() {
			parts = make([][]byte, c.Size)
			for r := range parts {
				parts[r] = pattern(r, 90+10*r)
			}
		}, func() any { return mine }, err
	}},
	{"Allgather", func(c *Comm) (*Plan, func(), func() any, error) {
		var mine []byte
		out := make([][]byte, c.Size)
		p := c.AllgatherPlan(one(&mine), each(&out))
		return p, func() { mine = pattern(c.Rank, 200+40*c.Rank) }, func() any { return out }, nil
	}},
	{"Alltoall", func(c *Comm) (*Plan, func(), func() any, error) {
		parts, out := make([][]byte, c.Size), make([][]byte, c.Size)
		p := c.AlltoallPlan(each(&parts), each(&out))
		return p, func() {
			for r := range parts {
				parts[r] = pattern(c.Rank*c.Size+r, 250+4*r)
			}
		}, func() any { return out }, nil
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
	{"AllreduceFromSrc", func(c *Comm) (*Plan, func(), func() any, error) {
		var acc, src []byte
		p, err := c.AllreducePlan(&acc, &src, 97, 8, Sum, dtype.I64)
		return p, func() { src, acc = operand(c.Rank, 97), make([]byte, 8*97) }, func() any { return acc }, err
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
	{"ReduceScatter", func(c *Comm) (*Plan, func(), func() any, error) {
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

// snapshot deep-copies a plan result ([]byte, [][]byte or nil): results
// may alias inputs that the next activation overwrites.
func snapshot(res any) any {
	switch v := res.(type) {
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

				p, load, result, err := f.build(c)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", where, err)
				}
				load()
				if err := p.Run(); err != nil {
					return nil, fmt.Errorf("%s Run: %w", where, err)
				}
				want := snapshot(result())

				agree := func(form string, req *Request) error {
					if err := req.Wait(); err != nil {
						return fmt.Errorf("%s %s: %w", where, form, err)
					}
					if got := snapshot(result()); !reflect.DeepEqual(got, want) {
						return fmt.Errorf("%s %s = %v, Run gave %v", where, form, got, want)
					}
					return nil
				}

				if p, load, result, err = f.build(c); err != nil {
					return nil, fmt.Errorf("%s: %w", where, err)
				}
				load()
				if err := agree("Start", p.Start()); err != nil {
					return nil, err
				}

				if p, load, result, err = f.build(c); err != nil {
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
