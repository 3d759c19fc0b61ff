//go:build race

package main

// raceEnabled reports whether the race detector instruments this build.
// Under -race, sync.Pool deliberately drops a fraction of Put items, so
// Compile pays emitter-pool misses that the traced replay into a reused
// emitter does not, and the reconciliation check cannot hold.
const raceEnabled = true
