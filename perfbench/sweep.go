package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/mesh"
	"repro/internal/telemetry"
	"repro/scenario"
)

// Per-point shape of the registered sweep scenario's defaults: the
// checks below hold these, they do not set them.
const (
	sweepParticles = 400
	sweepRanks     = 2
)

var sweepGens = []int{1, 2, 3}

// sweepAxes draws the grid from the seed: 4 particle diameters (1-20 um,
// log-uniform) x 3 inlet speeds (0.6-1.8 m/s) x generations {1, 2, 3}.
// Points run in grid order with generations varying fastest, so only
// the first three points meet a (mesh, rank count) pair for the first
// time.
func sweepAxes(seed int64) scenario.SweepAxes {
	r := newRand(seed, 2)
	distinct := func(n int, draw func() float64) []float64 {
		var out []float64
		seen := map[float64]bool{}
		for len(out) < n {
			if v := draw(); !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	d := distinct(4, func() float64 {
		um := math.Exp(r.Float64() * math.Log(20))
		return math.Round(um*10) / 10 * 1e-6
	})
	q := distinct(3, func() float64 { return math.Round((0.6+1.2*r.Float64())*20) / 20 })
	return scenario.SweepAxes{Diameters: d, Flows: q, Gens: sweepGens}
}

func sweepParams(axes scenario.SweepAxes, seed int64) scenario.Params {
	return scenario.NewParams(
		scenario.WithSweepDiameters(axes.Diameters...),
		scenario.WithSweepFlows(axes.Flows...),
		scenario.WithSweepGens(axes.Gens...),
		scenario.WithSeed(seed),
	)
}

// pointClock timestamps the simulations a scenario runs, through the two
// hooks the simulation entry point reads from its context: the
// checkpoint provider is asked for a plan when a simulation starts, and
// the telemetry sink receives the run when it ends. It records no
// checkpoint and no telemetry.
type pointClock struct {
	mu     sync.Mutex
	starts []time.Time
	ends   []time.Time
}

func (c *pointClock) NextPlan() *checkpoint.Plan {
	c.mu.Lock()
	c.starts = append(c.starts, time.Now())
	c.mu.Unlock()
	return nil
}

func (c *pointClock) BeginRun(telemetry.RunMeta) (*telemetry.RunWriter, error) {
	c.mu.Lock()
	c.ends = append(c.ends, time.Now())
	c.mu.Unlock()
	return nil, nil
}

func (c *pointClock) attach(ctx context.Context) context.Context {
	return checkpoint.ContextWithProvider(telemetry.ContextWithSink(ctx, c), c)
}

// sweepPass is one timed run of the registered sweep scenario.
type sweepPass struct {
	art    *scenario.Artifact
	wall   time.Duration
	points []time.Duration // completion to completion, the first from the call
	sims   []time.Duration // each point's simulation, start hook to end hook
}

func runSweepPass(ctx context.Context, sc scenario.Scenario, p scenario.Params) (sweepPass, error) {
	clk := &pointClock{}
	start := time.Now()
	art, err := sc.Run(clk.attach(ctx), p)
	out := sweepPass{art: art, wall: time.Since(start)}
	if err != nil {
		return out, err
	}
	if len(clk.starts) != len(clk.ends) {
		return out, fmt.Errorf("%d simulations started, %d ended", len(clk.starts), len(clk.ends))
	}
	prev := start
	for i, end := range clk.ends {
		out.points = append(out.points, end.Sub(prev))
		out.sims = append(out.sims, end.Sub(clk.starts[i]))
		prev = end
	}
	return out, nil
}

// checkSweep holds for any correct version: one row per grid point in
// grid order, and every row conserves its particles.
func checkSweep(art *scenario.Artifact, axes scenario.SweepAxes) error {
	if art == nil || len(art.Tables) != 1 {
		return fmt.Errorf("want one table")
	}
	grid := axes.Grid()
	rows := art.Tables[0].Rows
	if len(rows) != len(grid) {
		return fmt.Errorf("%d rows for %d grid points", len(rows), len(grid))
	}
	for i, row := range rows {
		if len(row.Values) != 8 {
			return fmt.Errorf("row %d has %d values, want 8", i, len(row.Values))
		}
		v := row.Values
		pt := grid[i]
		if math.Abs(v[0]-pt.Diameter*1e6) > 1e-9 || v[1] != pt.Flow || int(v[2]) != pt.MeshGens {
			return fmt.Errorf("row %d is %v, want point %s", i, v[:3], pt.Label())
		}
		f := fates{int(v[3]), int(v[4]), int(v[5]), int(v[6])}
		if err := checkFates(f, sweepParticles, 1); err != nil {
			return fmt.Errorf("row %d (%s): %w", i, pt.Label(), err)
		}
		if want := float64(f.Deposited) / float64(f.Injected); math.Abs(v[7]-want) > 1e-12 {
			return fmt.Errorf("row %d: dep_eff %v, want %v", i, v[7], want)
		}
	}
	return nil
}

// reuseShare is the share of grid points whose (generations, ranks)
// pair an earlier point already used: the property a plan or partition
// cache would exploit.
func reuseShare(axes scenario.SweepAxes) float64 {
	seen := map[[2]int]bool{}
	reused := 0
	grid := axes.Grid()
	for _, pt := range grid {
		k := [2]int{pt.MeshGens, sweepRanks}
		if seen[k] {
			reused++
		}
		seen[k] = true
	}
	return float64(reused) / float64(len(grid))
}

// setupSweep is the sweep's input generation: the grid, the scenario,
// and each airway depth of the grid, generated and checked once.
func setupSweep(seed int64) (scenario.SweepAxes, scenario.Scenario, error) {
	axes := sweepAxes(seed)
	sc, err := scenario.Default.Get(repro.ScenarioSweep)
	if err != nil {
		return axes, nil, err
	}
	for _, g := range axes.Gens {
		mc := repro.DefaultSimulationConfig().Mesh
		mc.Generations = g
		m, err := mesh.GenerateAirway(mc)
		if err != nil {
			return axes, nil, err
		}
		if err := m.Validate(); err != nil {
			return axes, nil, err
		}
	}
	return axes, sc, nil
}

func runSweepGrid(ctx context.Context, o options) (*endToEnd, error) {
	e := &endToEnd{op: "point"}
	var (
		axes scenario.SweepAxes
		sc   scenario.Scenario
	)
	if err := e.timeSetup(func() (err error) {
		axes, sc, err = setupSweep(o.seed)
		return err
	}); err != nil {
		return nil, err
	}
	runSeed := simSeeds(o.seed)[0]
	params := sweepParams(axes, runSeed)

	// Warm-up: the grid's first point alone, checked, not timed.
	first := axes.Grid()[0]
	warmAxes := scenario.SweepAxes{Diameters: []float64{first.Diameter}, Flows: []float64{first.Flow}, Gens: []int{first.MeshGens}}
	e.attempted++
	if pass, err := runSweepPass(ctx, sc, sweepParams(warmAxes, runSeed)); e.checkErr("warm-up point", err) {
		if err := checkSweep(pass.art, warmAxes); err != nil {
			e.fail("warm-up point: %v", err)
		}
	}

	seen := repeats{}
	deadline := time.Now().Add(o.window)
	for i := 0; ctx.Err() == nil && (time.Now().Before(deadline) || !e.enough()); i++ {
		e.attempted++ // one scenario call; a failed check fails the whole pass
		pass, err := runSweepPass(ctx, sc, params)
		if !e.checkErr(fmt.Sprintf("grid pass %d", i), err) {
			continue
		}
		if err := checkSweep(pass.art, axes); err != nil {
			e.fail("grid pass %d: %v", i, err)
		} else if err := seen.check("grid", pass.art.Text()); err != nil {
			e.fail("grid pass %d: %v", i, err)
		}
		e.ops = append(e.ops, pass.points...)
		e.runs = append(e.runs, pass.sims...)
		e.done += len(pass.points)
		e.busy += pass.wall
	}
	if len(e.ops) == 0 {
		return nil, fmt.Errorf("no grid pass completed")
	}
	pts := durationsMS(e.ops)
	e.note("sweep_points_per_s", float64(e.done)/e.busy.Seconds(), "1/s", 0)
	e.note("point_ms_p50", median(pts), "ms", len(pts))
	e.note("point_run_s", median(secondsOf(e.runs)), "s", len(e.runs))
	e.note("share.points_reusing_mesh_ranks", reuseShare(axes), "ratio", 0)
	return e, nil
}
