//go:build race

package mpi

// raceEnabled: the race detector instruments this build, which runs
// long loops many times slower.
const raceEnabled = true
