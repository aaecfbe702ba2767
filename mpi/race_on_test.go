//go:build race

package mpi_test

// raceEnabled reports that the race detector instruments this build:
// its sync.Pool drops items at random, so allocation budgets that rely
// on pooled frames recirculating are skipped.
const raceEnabled = true
