package simmpi

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// forceSpin sets the wait policy for the rest of the test: +1 opens the
// core gate whatever the core count, -1 never spins.
func forceSpin(t *testing.T, mode int32) {
	t.Helper()
	spinOverride.Store(mode)
	t.Cleanup(func() { spinOverride.Store(0) })
}

// TestSpinRanOutCoolsDown: after a spin runs out, exactly the next
// coolWaits waits park without spinning, then spinning resumes.
func TestSpinRanOutCoolsDown(t *testing.T) {
	forceSpin(t, 1)
	coolDown.Store(0)
	if !spinAllowed() {
		t.Fatal("spin refused with no cool-down pending")
	}
	spinRanOut()
	for i := 0; i < coolWaits; i++ {
		if spinAllowed() {
			t.Fatalf("wait %d of the cool-down spun", i)
		}
	}
	if !spinAllowed() {
		t.Fatal("spinning did not resume after the cool-down")
	}
}

func TestSpinGate(t *testing.T) {
	for _, c := range []struct {
		live, cores int64
		want        bool
	}{
		{1, 1, true},
		{2, 2, true},
		{2, 4, true},
		{3, 2, false},
		{96, 2, false},
	} {
		if got := spinGate(c.live, c.cores); got != c.want {
			t.Errorf("spinGate(live=%d, cores=%d) = %v, want %v", c.live, c.cores, got, c.want)
		}
	}
}

// TestWaitsParkWhenRanksExceedCores pins the gate end to end: a world
// that fits the usable cores spins, while one rank more than the cores —
// in one world, or split across two concurrent worlds — makes every wait
// park without spinning.
func TestWaitsParkWhenRanksExceedCores(t *testing.T) {
	cores := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	// run starts one world per size concurrently and checks the policy
	// each rank sees once every rank of every world is live.
	run := func(want bool, sizes ...int) {
		t.Helper()
		total := 0
		for _, n := range sizes {
			total += n
		}
		coolDown.Store(0) // an earlier wait's spin may have run out
		var started, checked, done sync.WaitGroup
		started.Add(total)
		checked.Add(total)
		errs := make(chan error, len(sizes))
		for _, n := range sizes {
			done.Add(1)
			go func() {
				defer done.Done()
				w, _ := NewWorld(n)
				errs <- w.Run(func(r *Rank) {
					started.Done()
					started.Wait()
					if got := spinAllowed(); got != want {
						t.Errorf("worlds %v on %d cores: spinAllowed = %v, want %v", sizes, cores, got, want)
					}
					checked.Done()
					checked.Wait() // no rank leaves before every rank has checked
					r.Comm.Barrier()
				})
			}()
		}
		done.Wait()
		for range sizes {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	run(true, cores)
	run(false, cores+1)
	run(false, cores, 1)
	run(true, cores)
}

// TestZeroAllocPinsWithSpin reruns the simmpi steady-state pins with the
// spin path forced on (the core gate held open), whatever the host's
// core count: spinning ranks run truly concurrently, which is what used
// to make contended arrival locks park on semaphores and allocate.
func TestZeroAllocPinsWithSpin(t *testing.T) {
	forceSpin(t, 1)
	t.Run("collectives", TestCollectivesZeroAlloc)
	t.Run("halo", TestHaloExchangeZeroAlloc)
	t.Run("one-way", TestOneWayShipmentZeroAlloc)
}

// TestCollectiveResultsUnderBothPolicies checks every typed and generic
// collective against the known answer over many rounds with waits
// spinning and with waits parking.
func TestCollectiveResultsUnderBothPolicies(t *testing.T) {
	for _, mode := range []int32{1, -1} {
		forceSpin(t, mode)
		const ranks = 3
		w, _ := NewWorld(ranks)
		if err := w.Run(func(r *Rank) {
			id := r.ID()
			dst := make([]float64, 2)
			gath := make([]float64, ranks)
			for round := 0; round < 200; round++ {
				if got := r.Comm.AllreduceFloat64(float64(id+round), OpMax); got != float64(ranks-1+round) {
					t.Errorf("mode %d round %d: max = %g", mode, round, got)
				}
				if got := r.Comm.AllreduceInt(id, OpSum); got != 3 {
					t.Errorf("mode %d round %d: int sum = %d", mode, round, got)
				}
				dst = r.Comm.AllreduceFloat64sInto([]float64{1, float64(id)}, OpSum, dst)
				if dst[0] != ranks || dst[1] != 3 {
					t.Errorf("mode %d round %d: slice sum = %v", mode, round, dst)
				}
				gath = r.Comm.AllgatherFloat64Into(float64(id*round), gath)
				for k, v := range gath {
					if v != float64(k*round) {
						t.Errorf("mode %d round %d: gather[%d] = %g", mode, round, k, v)
					}
				}
				if got := r.Comm.AllgatherInt(id + round); got[ranks-1] != ranks-1+round {
					t.Errorf("mode %d round %d: allgather int = %v", mode, round, got)
				}
				peer := (id + 1) % ranks
				from := (id + ranks - 1) % ranks
				if got := r.Comm.SendRecv(peer, round, id, from).(int); got != from {
					t.Errorf("mode %d round %d: ring got %d, want %d", mode, round, got, from)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpinningDropSurfacesStall: a dropped message or a dead rank seen
// by waiters on the spin path still surfaces as *ErrRankStalled within
// the watchdog deadline — the timer is armed when the spin gives up and
// the wait parks, with the deadline taken when the wait began.
func TestSpinningDropSurfacesStall(t *testing.T) {
	forceSpin(t, 1)
	const watchdog = 50 * time.Millisecond
	for _, c := range []struct {
		name string
		rule FaultRule
		tag  int
	}{
		{"send", FaultRule{Rank: 0, Op: FaultSend, Tag: 7, Step: -1, Action: FaultDrop}, 7},
		{"collective", FaultRule{Rank: 0, Op: FaultCollective, Tag: -1, Step: -1, Action: FaultDrop}, CollectiveTag},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan := &FaultPlan{Rules: []FaultRule{c.rule}}
			w, err := NewWorld(2, WithWatchdog(watchdog), WithFaultPlan(plan))
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			err = w.Run(func(r *Rank) {
				r.SetStep(4)
				if r.ID() == 0 {
					r.Comm.Send(1, 7, 1.0)
				} else {
					r.Comm.Recv(0, 7)
				}
				r.Comm.Barrier()
			})
			elapsed := time.Since(start)
			var stall *ErrRankStalled
			if !errors.As(err, &stall) {
				t.Fatalf("want ErrRankStalled, got %v", err)
			}
			if stall.Tag != c.tag || stall.Step != 4 {
				t.Fatalf("stall = %+v, want tag %d step 4", stall, c.tag)
			}
			if elapsed > 2*time.Second {
				t.Fatalf("stall took %v, watchdog is %v", elapsed, watchdog)
			}
		})
	}
}

// TestWatchdogShorterThanSpin: a deadline that expires while the wait
// is still spinning fails the wait as soon as it would park.
func TestWatchdogShorterThanSpin(t *testing.T) {
	forceSpin(t, 1)
	w, _ := NewWorld(2, WithWatchdog(time.Nanosecond))
	err := w.Run(func(r *Rank) {
		if r.ID() == 1 {
			r.Comm.Recv(0, 9) // never sent
		}
	})
	var stall *ErrRankStalled
	if !errors.As(err, &stall) || stall.Rank != 1 || stall.Tag != 9 {
		t.Fatalf("want rank 1 stalled on tag 9, got %v", err)
	}
}
