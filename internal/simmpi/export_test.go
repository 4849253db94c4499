package simmpi

// ForceSpinForTest sets the wait policy for the external test package,
// which drives whole solver and coupled runs: +1 opens the core gate
// whatever the core count, -1 never spins, 0 restores the gate.
func ForceSpinForTest(mode int32) { spinOverride.Store(mode) }
