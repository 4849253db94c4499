// Rank waits: spin, then park.
//
// A rank that blocks in a receive or a collective first spins on an
// atomic — the collective's generation or the mailbox's put counter —
// for at most spinWindow, and only then parks on the condition variable.
// Parking costs a scheduler round trip per wait: the waker readies the
// parked rank into its own P's runnext slot, so on a 2-CPU host two
// ranks ping-pong on one P unless a futex wake brings the idle P in, and
// the Krylov loop pays that latency on every halo exchange and every
// inner-product allreduce.
//
// The spin polls without yielding. A runtime.Gosched between polls sends
// the spinner through the global run queue, so ranks and their pool
// workers hop between Ps: a worker that parks on one P and wakes on
// another carries its sudog across, the per-P sudog caches drain, and the
// runtime allocates sudogs again every step (tens of 96-byte objects per
// solver step on two ranks, which breaks the zero-allocation pins). The
// bounded window and the gate below keep a non-yielding spin cheap: it
// never outlasts a short wait, and it only runs while every rank has a
// core of its own, so the peer it waits for is running, not queued.
//
// The gate is an observable property of the process, not a knob: waits
// spin only while the live World.Run rank goroutines, counted across all
// worlds, fit in min(GOMAXPROCS, NumCPU). When concurrent worlds
// oversubscribe the cores, a spinning rank would burn the CPU its peer
// needs to make progress, so waits park exactly as they did before
// spinning existed.
//
// A spin that runs out is the other observable: the peer is not running
// (descheduled by a loaded host, or busy in a long phase), and the waits
// around it are likely long too. The next coolWaits waits in the process
// then park without spinning. That hands the CPU to pool workers and to
// other processes, and it keeps the runtime's parking path warm: when
// parks are rare, each one finds its P's sudog cache empty and its wakeup
// finds no idle thread, so the runtime allocates (a sudog, or a whole M)
// inside the steady state. Under a loaded host the zero-allocation pins
// failed in about half of full test-suite runs without the cool-down and
// in none of six with it.
package simmpi

import (
	"runtime"
	"sync/atomic"
	"time"
)

// spinWindow bounds the spin of one wait before it parks. It covers the
// drift of two ranks inside a Krylov iteration and most of it at phase
// boundaries (on sync-long a 50 µs window left a third of the gain on
// the table, while 1 ms gained nothing over 200 µs), and keeps the CPU a
// genuinely long wait burns small next to the wait.
const spinWindow = 200 * time.Microsecond

// spinClockEvery is how many polls pass between reads of the clock that
// enforces spinWindow.
const spinClockEvery = 256

// coolWaits is how many waits park without spinning after a spin runs
// out: a few Krylov iterations' worth, a small share of a step's
// thousands of waits.
const coolWaits = 64

// Process-wide wait-policy state. Rank goroutines of every world share
// the machine's cores, so the gate must count them across worlds.
var (
	liveRanks   atomic.Int64 // World.Run rank goroutines alive now
	usableCores atomic.Int64 // min(GOMAXPROCS, NumCPU), sampled per Run
	coolDown    atomic.Int64 // waits left to park without spinning

	// spinOverride forces the policy for tests: 0 applies the core gate,
	// +1 opens it whatever the core count, -1 never spins.
	spinOverride atomic.Int32
)

// sampleCores refreshes the usable-core count; World.Run calls it before
// spawning ranks so a GOMAXPROCS change takes effect for the next world.
func sampleCores() {
	usableCores.Store(int64(min(runtime.GOMAXPROCS(0), runtime.NumCPU())))
}

// spinGate is the policy: spin only while every live rank can hold a
// core of its own.
func spinGate(live, cores int64) bool { return live <= cores }

// spinAllowed reports whether a wait starting now may spin before it
// parks; a wait that is refused during a cool-down uses up one of its
// waits.
func spinAllowed() bool {
	switch spinOverride.Load() {
	case -1:
		return false
	case 0:
		if !spinGate(liveRanks.Load(), usableCores.Load()) {
			return false
		}
	}
	if coolDown.Load() > 0 {
		coolDown.Add(-1)
		return false
	}
	return true
}

// spinRanOut starts a cool-down; a wait calls it when its spin window
// closes without the event it waited for.
func spinRanOut() { coolDown.Store(coolWaits) }

// spinner is the clock of one bounded spin.
type spinner struct {
	polls int
	start time.Time
}

// expired counts a poll and reports whether the spin window has closed;
// the clock is read only every spinClockEvery polls.
func (s *spinner) expired() bool {
	s.polls++
	if s.polls%spinClockEvery != 1 {
		return false
	}
	if s.polls == 1 {
		s.start = time.Now()
		return false
	}
	return time.Since(s.start) > spinWindow
}
