package simmpi_test

import (
	"runtime"
	"testing"

	"repro/internal/coupling"
	"repro/internal/mesh"
	"repro/internal/navierstokes"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
)

// The solver and coupled steady-state pins (navierstokes and coupling
// packages) rerun here with the spin path forced on (the core gate held
// open), so they hold whatever the host's core count. Bounds are the
// pins'.

func spinningWaits(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool caches (fem scratch), so the zero-alloc pin only holds without -race")
	}
	simmpi.ForceSpinForTest(1)
	t.Cleanup(func() { simmpi.ForceSpinForTest(0) })
}

func smallAirway(t *testing.T) *mesh.Mesh {
	t.Helper()
	mc := mesh.DefaultAirwayConfig()
	mc.Generations = 2
	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSolverStepZeroAllocWithSpin(t *testing.T) {
	spinningWaits(t)
	m := smallAirway(t)
	p, err := partition.KWay(m.DualByNode(), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := partition.BuildRankMeshes(m, p.Parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := simmpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	var allocs uint64
	if err := w.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(2)
		defer pool.Close()
		s, err := navierstokes.NewSolver(m, rms[r.ID()], r.Comm, pool, navierstokes.DefaultConfig(), navierstokes.DefaultCostModel(), nil)
		if err != nil {
			panic(err)
		}
		steps := func(n int) {
			for i := 0; i < n; i++ {
				if _, err := s.Step(); err != nil {
					panic(err)
				}
			}
		}
		steps(3)
		r.Comm.Barrier()
		if r.ID() == 0 {
			runtime.GC() // keep a collection out of the window (fem-scratch sync.Pool)
		}
		r.Comm.Barrier()
		steps(2)
		r.Comm.Barrier()
		var m0, m1 runtime.MemStats
		if r.ID() == 0 {
			runtime.ReadMemStats(&m0)
		}
		r.Comm.Barrier()
		steps(5)
		r.Comm.Barrier()
		if r.ID() == 0 {
			runtime.ReadMemStats(&m1)
			allocs = m1.Mallocs - m0.Mallocs
		}
	}); err != nil {
		t.Fatal(err)
	}
	if allocs > 16 {
		t.Errorf("steady-state multidep Step with spinning waits allocated %d objects over 5 steps, want ~0", allocs)
	}
}

func TestCoupledStepZeroAllocWithSpin(t *testing.T) {
	spinningWaits(t)
	cfg := coupling.DefaultRunConfig()
	cfg.Mode = coupling.Coupled
	cfg.FluidRanks = 1
	cfg.ParticleRanks = 1
	cfg.Steps = 45
	cfg.NumParticles = 300
	const warm = 15
	var m0, m1 runtime.MemStats
	cfg.OnStep = func(step int) {
		switch step {
		case warm - 2:
			runtime.GC()
		case warm:
			runtime.ReadMemStats(&m0)
		case cfg.Steps - 1:
			runtime.ReadMemStats(&m1)
		}
	}
	if _, err := coupling.Run(smallAirway(t), cfg); err != nil {
		t.Fatal(err)
	}
	if allocs := m1.Mallocs - m0.Mallocs; allocs > 16 {
		t.Errorf("steady-state coupled step with spinning waits allocated %d objects over %d steps, want ~0", allocs, cfg.Steps-1-warm)
	}
}
