//go:build race

package simmpi_test

// raceEnabled reports that this test binary runs under the race
// detector, which deliberately drops sync.Pool caches (the solver's
// per-element scratch), so steady-state allocation pins cannot hold.
const raceEnabled = true
