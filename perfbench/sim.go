package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro"
	"repro/internal/coupling"
	"repro/internal/mesh"
	"repro/internal/trace"
)

// syncLongConfig is the sync-long workload's run: step time dominates,
// so solver (SpMV), assembly and halo-exchange changes show here.
func syncLongConfig() repro.SimulationConfig {
	cfg := repro.DefaultSimulationConfig()
	cfg.Mesh.Generations = 3 // 2311 nodes, 5695 elements
	cfg.Run.FluidRanks = 2
	cfg.Run.WorkersPerRank = 1
	cfg.Run.Steps = 30
	cfg.Run.NumParticles = 2000
	return cfg
}

// coupledDosingConfig is the paper's Fig. 8-11 configuration at laptop
// scale: one fluid and one particle rank with DLB lending cores between
// them, and a fresh release every step so the particle code carries the
// load.
func coupledDosingConfig() repro.SimulationConfig {
	cfg := repro.DefaultSimulationConfig()
	cfg.Run.Mode = coupling.Coupled
	cfg.Run.FluidRanks, cfg.Run.ParticleRanks = 1, 1
	cfg.Run.WorkersPerRank = 1
	cfg.Run.UseDLB = true
	cfg.Run.InjectEvery = 1
	cfg.Run.NumParticles = 3000
	cfg.Run.Steps = 20
	return cfg
}

// releases is how many times a run injects its particle count.
func releases(rc coupling.RunConfig) int {
	if rc.InjectEvery <= 0 {
		return 1
	}
	return (rc.Steps + rc.InjectEvery - 1) / rc.InjectEvery
}

// newRand is the benchmark's one source of seeded inputs.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// simSeeds draws the injection seeds the runs cycle through. Two seeds
// make every run after the second a repeat whose output must match.
func simSeeds(seed int64) [2]int64 {
	r := newRand(seed, 1)
	a := 1 + r.Int64N(1<<40)
	b := a + 1 + r.Int64N(1<<20)
	return [2]int64{a, b}
}

// simRun is one timed simulation.
type simRun struct {
	res   *repro.SimulationResult
	wall  time.Duration
	first time.Duration   // call to rank 0's first completed step
	steps []time.Duration // intervals between later steps
}

// simulate runs cfg through the public entry point under a cancellable
// context, as the command-line tools and the job server do (it adds a
// world-level cancel check to every step).
func simulate(ctx context.Context, cfg repro.SimulationConfig) (simRun, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stamps := make([]time.Time, 0, cfg.Run.Steps)
	cfg.Run.OnStep = func(int) { stamps = append(stamps, time.Now()) }
	start := time.Now()
	res, err := repro.RunSimulationContext(ctx, cfg)
	r := simRun{res: res, wall: time.Since(start)}
	if err != nil {
		return r, err
	}
	if len(stamps) != cfg.Run.Steps {
		return r, fmt.Errorf("%d steps reported, want %d", len(stamps), cfg.Run.Steps)
	}
	r.first = stamps[0].Sub(start)
	for i := 1; i < len(stamps); i++ {
		r.steps = append(r.steps, stamps[i].Sub(stamps[i-1]))
	}
	return r, nil
}

// simFates are a run's particle counts.
func simFates(res *coupling.RunResult) fates {
	return fates{res.Injected, res.Deposited, res.Exited, res.ActiveEnd}
}

// traceText is the part of a run's output the program promises is
// byte-identical across repeats when DLB is off.
func traceText(res *coupling.RunResult) string {
	return res.Trace.Render(120, 0) + res.Trace.Summary() + fmt.Sprintf("makespan=%v\n", res.Makespan)
}

// checkSim applies the output checks that hold for any correct version.
func checkSim(cfg repro.SimulationConfig, res *coupling.RunResult, seen repeats) error {
	f := simFates(res)
	if err := checkFates(f, cfg.Run.NumParticles, releases(cfg.Run)); err != nil {
		return err
	}
	// Particle fates do not depend on worker counts, so they repeat even
	// when DLB resizes pools; the trace is promised only with DLB off.
	out := fmt.Sprintf("%+v\n", f)
	if !cfg.Run.UseDLB {
		out += traceText(res)
	}
	return seen.check(fmt.Sprintf("seed=%d", cfg.Run.Seed), out)
}

// particleSteps is the particle-steps a run advanced, read back from the
// virtual particle phase (each particle-step costs ParticleUnit).
func particleSteps(rc coupling.RunConfig, res *coupling.RunResult) float64 {
	total := 0.0
	for _, t := range res.Trace.PhaseTimes()[trace.PhaseParticles] {
		total += t
	}
	return math.Round(total / rc.ParticleUnit)
}

// setupSim is the simulation workloads' input generation: the seeds and
// the airway mesh, whose size is checked before any run.
func setupSim(seed int64, cfg repro.SimulationConfig) ([2]int64, mesh.Stats, error) {
	seeds := simSeeds(seed)
	m, err := mesh.GenerateAirway(cfg.Mesh)
	if err != nil {
		return seeds, mesh.Stats{}, err
	}
	return seeds, m.Summary(), m.Validate()
}

func runSyncLong(ctx context.Context, o options) (*endToEnd, error) {
	return runSim(ctx, o, syncLongConfig())
}

func runCoupledDosing(ctx context.Context, o options) (*endToEnd, error) {
	return runSim(ctx, o, coupledDosingConfig())
}

func runSim(ctx context.Context, o options, cfg repro.SimulationConfig) (*endToEnd, error) {
	e := &endToEnd{op: "step"}
	var (
		seeds [2]int64
		stats mesh.Stats
	)
	if err := e.timeSetup(func() (err error) {
		seeds, stats, err = setupSim(o.seed, cfg)
		return err
	}); err != nil {
		return nil, err
	}

	seen := repeats{}
	var firsts []float64
	var psteps float64
	one := func(i int, timed bool) {
		cfg.Run.Seed = seeds[i%2]
		e.attempted++
		r, err := simulate(ctx, cfg)
		if !e.checkErr(fmt.Sprintf("run %d", i), err) {
			return
		}
		if err := checkSim(cfg, r.res.Result, seen); err != nil {
			e.fail("run %d: %v", i, err)
		}
		if !timed {
			return
		}
		e.runs = append(e.runs, r.wall)
		e.ops = append(e.ops, r.steps...)
		e.done += cfg.Run.Steps
		e.busy += r.wall
		firsts = append(firsts, r.first.Seconds())
		psteps += particleSteps(cfg.Run, r.res.Result)
	}
	// The first run warms the heap and code paths; it is checked, not
	// timed.
	one(0, false)
	deadline := time.Now().Add(o.window)
	for i := 1; ctx.Err() == nil && (time.Now().Before(deadline) || !e.enough()); i++ {
		one(i, true)
	}
	if len(e.runs) == 0 {
		return nil, fmt.Errorf("no run completed")
	}

	e.note("mesh.nodes", float64(stats.Nodes), "count", 0)
	e.note("mesh.elements", float64(stats.Elems), "count", 0)
	e.note("run_s", median(secondsOf(e.runs)), "s", len(e.runs))
	e.note("first_step_s", median(firsts), "s", len(firsts))
	e.note("share.first_step_of_run", median(firsts)/median(secondsOf(e.runs)), "ratio", 0)
	steps := durationsMS(e.ops)
	e.note("step_ms_p50", median(steps), "ms", len(steps))
	if p90, ok := percentile(steps, 0.9); ok {
		e.note("step_ms_p90", p90, "ms", len(steps))
	}
	e.note("particle_steps_per_s", psteps/e.busy.Seconds(), "1/s", 0)
	return e, nil
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
