package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/coupling"
	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/mesh"
	"repro/internal/navierstokes"
	"repro/internal/particles"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The traced run replays every workload's shape, whatever --workload
// names: several of its claims compare workloads (set-up is a small
// share of sync-long and a large one of sweep-grid; the particle step is
// a large share of coupled-dosing and a small one of sync-long). Each
// per-layer metric comes from the workload its layer loads:
//
//   - set-up layers (mesh, partition, core plan, tracker): sync-long's
//     mesh and rank count, repeated;
//   - fluid step, la kernels, step allreduce, migration: sync-long;
//   - particle step, velocity shipment, DLB: coupled-dosing;
//   - scenario: one sweep-grid pass; service, telemetry: a short
//     service-mix run; checkpoint: a snapshot a service-mix-shaped
//     run wrote.

// layers collects the per-layer metrics and their human-readable rows.
type layers struct {
	tally
	rec     *recorder
	metrics map[string]metric
}

func (l *layers) put(name string, v float64, unit string) {
	l.metrics[name] = metric{v, unit}
	fmt.Printf("%-44s %16.6g %s\n", name, v, unit)
}

// medMS is the median of the named spans in milliseconds.
func (l *layers) medMS(name, trace string, rank int) float64 {
	return median(durationsMS(l.rec.durations(name, trace, rank)))
}

const anyRank = -2

func runTraced(ctx context.Context, o options, st stamp) (map[string]metric, tally, error) {
	l := &layers{rec: newRecorder(), metrics: map[string]metric{}}
	seed := simSeeds(o.seed)[0]
	steps := []func() error{
		func() error { return l.setupLayers() },
		func() error { return l.syncLong(ctx, seed, st) },
		func() error { return l.coupledDosing(ctx, seed) },
		func() error { return l.sweepGrid(ctx, o.seed) },
		func() error { return l.serviceMix(ctx, o) },
		func() error { return l.checkpoint(ctx, o, seed) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, l.tally, err
		}
	}
	path := filepath.Join(".bench_build", "perfbench", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := l.rec.write(path); err != nil {
		return nil, l.tally, err
	}
	fmt.Printf("spans: %d written to %s\n", len(l.rec.spans), path)
	return l.metrics, l.tally, nil
}

// setupLayers times each set-up call on sync-long's mesh and rank
// count, several times, outside any run.
func (l *layers) setupLayers() error {
	const reps = 5
	cfg := syncLongConfig()
	sc := l.rec.scope("setup-probe", -1)
	workers := cfg.Run.RanksPerNode * cfg.Run.WorkersPerRank // the pool size a plan is built for
	opts := core.Options{Strategy: cfg.Run.NS.Strategy, Keying: cfg.Run.NS.Keying, SubdomainsPerRank: cfg.Run.NS.SubdomainsPerRank}
	edgeCut := 0
	for i := 0; i < reps; i++ {
		l.attempted++
		m, err := genMesh(sc, func() (*mesh.Mesh, error) { return mesh.GenerateAirway(cfg.Mesh) })
		if err != nil {
			return err
		}
		var (
			p    *partition.Partition
			dual *graph.CSR
		)
		sc.do("mesh.DualByNode", func() { dual = m.DualByNode() })
		sc.do("partition.KWay", func() { p, err = partition.KWay(dual, nil, cfg.Run.FluidRanks) })
		if err != nil {
			return err
		}
		edgeCut = partition.EdgeCut(dual, p.Parts)
		var rms []*partition.RankMesh
		sc.do("partition.BuildRankMeshes", func() { rms, err = partition.BuildRankMeshes(m, p.Parts, cfg.Run.FluidRanks) })
		if err != nil {
			return err
		}
		for _, rm := range rms {
			sc.do("core.BuildPlan", func() { _, err = core.BuildPlan(rm, opts, workers) })
			if err != nil {
				return err
			}
		}
		sc.do("particles.NewTracker", func() { particles.NewTracker(m, rms[0].Elems, cfg.Run.Species, cfg.Run.Fluid) })
	}
	for _, n := range []struct{ metric, span string }{
		{"mesh.generate_ms", "mesh.GenerateAirway"},
		{"mesh.dual_ms", "mesh.DualByNode"},
		{"partition.kway_ms", "partition.KWay"},
		{"partition.rankmeshes_ms", "partition.BuildRankMeshes"},
		{"core.build_plan_ms", "core.BuildPlan"},
		{"particles.new_tracker_ms", "particles.NewTracker"},
	} {
		l.put(n.metric, l.medMS(n.span, "setup-probe", anyRank), "ms")
	}
	l.put("partition.edge_cut", float64(edgeCut), "count")
	return nil
}

// syncLong replays sync-long next to an untraced run of the same seed,
// measures the la kernels on the solver's own matrices, and runs the
// one-rank, one-worker baseline.
func (l *layers) syncLong(ctx context.Context, seed int64, st stamp) error {
	cfg := syncLongConfig()
	cfg.Run.Seed = seed
	l.attempted++
	untraced, err := simulate(ctx, cfg)
	if !l.checkErr("sync-long untraced run", err) {
		return nil
	}
	const asmReps = 9
	sc := l.rec.scope("sync-long", -1)
	l.attempted++
	rp, err := replaySync(ctx, sc, func() (*mesh.Mesh, error) { return mesh.GenerateAirway(cfg.Mesh) }, cfg.Run, asmReps)
	if !l.checkErr("sync-long replica", err) {
		return nil
	}
	if err := checkFates(simFates(rp.res), cfg.Run.NumParticles, releases(cfg.Run)); err != nil {
		l.fail("sync-long replica: %v", err)
	}
	if err := checkReplay(cfg.Run, untraced.res.Result, rp.res); err != nil {
		l.fail("sync-long fidelity: %v", err)
	}
	l.put("trace.overhead_ratio.sync-long", rp.wall.Seconds()/untraced.wall.Seconds(), "ratio")

	newSolver := l.rec.durations("navierstokes.NewSolver", "sync-long", anyRank)
	l.put("navierstokes.new_solver_ms", slowest(newSolver), "ms")
	l.put("navierstokes.step_ms", l.medMS("navierstokes.Step", "sync-long", 0), "ms")
	asm := l.medMS("navierstokes.AssembleMomentumForBenchmark", "sync-long", anyRank)
	l.put("navierstokes.assembly_ms", asm, "ms")
	l.put("navierstokes.momentum_iters", float64(rp.momIters), "count")
	l.put("navierstokes.pressure_iters", float64(rp.presIter), "count")
	l.put("simmpi.step_allreduce_wait_ms", l.slowestPerStep("simmpi.AllreduceFloat64.step", "sync-long", cfg.Run.FluidRanks), "ms")
	l.put("particles.migrate_ms", l.medMS("particles.Migrate", "sync-long", 0), "ms")
	l.put("particles.migrated", float64(rp.migrated), "count")

	// Shares of the run's wall time on rank 0.
	wall := rp.wall.Seconds()
	loop := sumDur(l.rec.durations("step", "sync-long", 0)).Seconds()
	part := l.particleTime("sync-long", 0).Seconds()
	l.put("share.sync-long.setup", (wall-loop)/wall, "ratio")
	l.put("share.sync-long.particles", part/wall, "ratio")

	// The model's phase shares next to the measured ones, over every
	// rank's step loop. Measured assembly is the post-run assembly time
	// per step.
	var modelAsm, modelPart, clocks, loops, parts float64
	for r, rt := range rp.res.Trace.Ranks {
		tot := rt.PhaseTotals()
		modelAsm += tot[trace.PhaseAssembly]
		modelPart += tot[trace.PhaseParticles]
		clocks += rt.Clock()
		loops += sumDur(l.rec.durations("step", "sync-long", r)).Seconds()
		parts += l.particleTime("sync-long", r).Seconds()
	}
	modelAsm, modelPart = modelAsm/clocks, modelPart/clocks
	measAsm := asm / 1000 * float64(cfg.Run.Steps) * float64(len(rp.res.Trace.Ranks)) / loops
	measPart := parts / loops
	l.put("share.model.assembly", modelAsm, "ratio")
	l.put("share.measured.assembly", measAsm, "ratio")
	l.put("share.model.particles", modelPart, "ratio")
	l.put("share.measured.particles", measPart, "ratio")
	l.put("share.model.rest", 1-modelAsm-modelPart, "ratio")
	l.put("share.measured.rest", 1-measAsm-measPart, "ratio")

	l.kernels(rp.solvers[0], seed, st)

	// One rank, one worker: the baseline of parallel efficiency.
	base := cfg
	base.Run.FluidRanks = 1
	l.attempted++
	one, err := simulate(ctx, base)
	if !l.checkErr("sync-long one-rank baseline", err) {
		return nil
	}
	if err := checkFates(simFates(one.res.Result), base.Run.NumParticles, releases(base.Run)); err != nil {
		l.fail("sync-long one-rank baseline: %v", err)
	}
	l.put("coupling.parallel_efficiency", one.wall.Seconds()/(float64(cfg.Run.FluidRanks)*untraced.wall.Seconds()), "ratio")
	return nil
}

// particleTime is a rank's time in the particle layer: injection,
// tracking and migration.
func (l *layers) particleTime(trace string, rank int) time.Duration {
	var t time.Duration
	for _, name := range []string{"particles.InjectAtInletCollectiveAt", "particles.Tracker.Step", "particles.Migrate"} {
		t += sumDur(l.rec.durations(name, trace, rank))
	}
	return t
}

// slowestPerStep is the median over steps of the longest wait any rank
// had in the named collective.
func (l *layers) slowestPerStep(name, trace string, ranks int) float64 {
	per := make([][]time.Duration, ranks)
	for r := range per {
		per[r] = l.rec.durations(name, trace, r)
	}
	var worst []float64
	for s := range per[0] {
		w := time.Duration(0)
		for r := range per {
			if s < len(per[r]) {
				w = max(w, per[r][s])
			}
		}
		worst = append(worst, ms(w))
	}
	return median(worst)
}

func slowest(ds []time.Duration) float64 {
	w := time.Duration(0)
	for _, d := range ds {
		w = max(w, d)
	}
	return ms(w)
}

// kernels times SpMV on the solver's pressure Laplacian L and momentum
// matrix A, a dot product and PCG iterations on L, serially on one
// goroutine. The byte counts are computed from array sizes, not
// measured; these matrices fit in the last-level cache, so no roofline
// ratio is given.
func (l *layers) kernels(s *navierstokes.Solver, seed int64, st stamp) {
	r := rand.New(rand.NewPCG(uint64(seed), 5))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Float64()
		}
		return v
	}
	for _, mat := range []struct {
		name string
		a    *la.CSRMatrix
	}{{"L", s.L}, {"A", s.A}} {
		a := mat.a
		x, y := vec(a.N), make([]float64, a.N)
		per := batchNS(func() { a.MulVec(x, y) })
		l.put("la.spmv_ns_per_nnz."+mat.name, per/float64(a.NNZ()), "ns")
		// Computed traffic of one y = A x: values and column indices,
		// row pointers, x read once, y written once.
		bytes := a.NNZ()*(8+4) + (a.N+1)*4 + 2*a.N*8
		fmt.Printf("  spmv %s (computed): n=%d nnz=%d bytes=%d ops=%d ops/byte=%.4f matrix_bytes/llc=%.4g (llc %s)\n",
			mat.name, a.N, a.NNZ(), bytes, 2*a.NNZ(), float64(2*a.NNZ())/float64(bytes),
			float64(bytes)/float64(max(st.LLCBytes, 1)), st.LLC)
	}
	n := s.L.N
	x, y := vec(n), vec(n)
	var sink float64
	l.put("la.dot_ns", batchNS(func() { sink += la.Dot(x, y) }), "ns")

	diag := make([]float64, n)
	s.L.Diagonal(diag)
	b := vec(n)
	const iters = 40
	var stats la.SolveStats
	d := batchNS(func() {
		sol := make([]float64, n)
		// A zero tolerance runs every iteration; a local share of L may
		// break down early, so the time is per iteration actually run.
		stats, _ = la.PCG(la.OpsFromMatrix(s.L), la.JacobiPreconditioner(diag), b, sol, 0, iters)
	})
	l.put("la.pcg_ms_per_iter", d/1e6/float64(max(stats.Iterations, 1)), "ms")
}

// batchNS is the median over batches of fn's time per call in
// nanoseconds, each batch about two milliseconds.
func batchNS(fn func()) float64 {
	k := 1
	for {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		if time.Since(t0) > 2*time.Millisecond || k >= 1<<20 {
			break
		}
		k *= 2
	}
	var per []float64
	for b := 0; b < 9; b++ {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(k))
	}
	return median(per)
}

// coupledDosing replays coupled-dosing next to an untraced run.
func (l *layers) coupledDosing(ctx context.Context, seed int64) error {
	cfg := coupledDosingConfig()
	cfg.Run.Seed = seed
	l.attempted++
	untraced, err := simulate(ctx, cfg)
	if !l.checkErr("coupled-dosing untraced run", err) {
		return nil
	}
	sc := l.rec.scope("coupled-dosing", -1)
	l.attempted++
	rp, err := replayCoupled(ctx, sc, func() (*mesh.Mesh, error) { return mesh.GenerateAirway(cfg.Mesh) }, cfg.Run)
	if !l.checkErr("coupled-dosing replica", err) {
		return nil
	}
	if err := checkFates(simFates(rp.res), cfg.Run.NumParticles, releases(cfg.Run)); err != nil {
		l.fail("coupled-dosing replica: %v", err)
	}
	if err := checkReplay(cfg.Run, untraced.res.Result, rp.res); err != nil {
		l.fail("coupled-dosing fidelity: %v", err)
	}
	for _, s := range []coupling.RunResult{*untraced.res.Result, *rp.res} {
		if s.DLB.Lends != s.DLB.Reclaims {
			l.fail("coupled-dosing: DLB lends %d != reclaims %d", s.DLB.Lends, s.DLB.Reclaims)
		}
	}
	l.put("trace.overhead_ratio.coupled-dosing", rp.wall.Seconds()/untraced.wall.Seconds(), "ratio")

	prank := cfg.Run.FluidRanks // the first particle rank
	stepMS := l.medMS("particles.Tracker.Step", "coupled-dosing", prank)
	l.put("particles.step_ms", stepMS, "ms")
	l.put("particles.ns_per_particle_step",
		float64(sumDur(l.rec.durations("particles.Tracker.Step", "coupled-dosing", anyRank)))/float64(max(rp.work, 1)), "ns")
	l.put("particles.inject_ms", l.medMS("particles.InjectAtInletCollectiveAt", "coupled-dosing", prank), "ms")
	l.put("particles.work_units", float64(rp.work), "count")
	l.put("simmpi.velocity_recv_wait_ms", l.medMS("simmpi.RecvFloat64Buf.velocity", "coupled-dosing", prank), "ms")
	l.put("dlb.lends", float64(rp.res.DLB.Lends), "count")
	l.put("dlb.reclaims", float64(rp.res.DLB.Reclaims), "count")
	// Lending follows real idle time, so the count varies run to run;
	// this is the relative gap between the replica and the untraced run.
	a, b := float64(rp.res.DLB.Lends), float64(untraced.res.Result.DLB.Lends)
	l.put("dlb.lends_rel_spread", abs(a-b)/max((a+b)/2, 1), "ratio")

	wall := rp.wall.Seconds()
	loop := sumDur(l.rec.durations("step", "coupled-dosing", 0)).Seconds()
	l.put("share.coupled-dosing.setup", (wall-loop)/wall, "ratio")
	l.put("share.coupled-dosing.particles", l.particleTime("coupled-dosing", prank).Seconds()/wall, "ratio")
	return nil
}

func abs(x float64) float64 { return max(x, -x) }

// sweepGrid times one pass of the registered sweep scenario point by
// point, and replays the grid's first diameter slice to split each
// point into set-up and steps.
func (l *layers) sweepGrid(ctx context.Context, seed int64) error {
	axes, sc, err := setupSweep(seed)
	if err != nil {
		return err
	}
	runSeed := simSeeds(seed)[0]
	l.attempted++
	pass, err := runSweepPass(ctx, sc, sweepParams(axes, runSeed))
	if !l.checkErr("sweep-grid pass", err) {
		return nil
	}
	if err := checkSweep(pass.art, axes); err != nil {
		l.fail("sweep-grid pass: %v", err)
	}
	l.put("scenario.sweep_point_ms", median(durationsMS(pass.points)), "ms")
	l.put("share.sweep-grid.reuse", reuseShare(axes), "ratio")

	// The replica reuses one mesh builder and partition scratch across
	// points, as the scenario does.
	builder := mesh.NewBuilder()
	scratch := partition.NewScratch()
	var setup, total float64
	for i, pt := range axes.Grid()[:len(axes.Flows)*len(axes.Gens)] {
		mc := repro.DefaultSimulationConfig().Mesh
		mc.Generations = pt.MeshGens
		rc := coupling.DefaultRunConfig()
		rc.FluidRanks = sweepRanks
		rc.Steps = 2
		rc.NumParticles = sweepParticles
		rc.Species.Diameter = pt.Diameter
		rc.NS.InletVelocity = mesh.Vec3{Z: -pt.Flow}
		rc.PartitionScratch = scratch
		rc.Seed = runSeed
		id := fmt.Sprintf("sweep-grid/%d", i)
		l.attempted++
		rp, err := replaySync(ctx, l.rec.scope(id, -1), func() (*mesh.Mesh, error) { return builder.GenerateAirway(mc) }, rc, 0)
		if !l.checkErr("sweep-grid replica "+pt.Label(), err) {
			continue
		}
		row := pass.art.Tables[0].Rows[i].Values
		if got := simFates(rp.res); got != (fates{int(row[3]), int(row[4]), int(row[5]), int(row[6])}) {
			l.fail("sweep-grid replica %s: counts %+v differ from the scenario's row %v", pt.Label(), got, row[3:7])
		}
		wall := rp.wall.Seconds()
		setup += wall - sumDur(l.rec.durations("step", id, 0)).Seconds()
		total += wall
	}
	l.put("share.sweep-grid.setup", setup/total, "ratio")
	return nil
}

// serviceMix runs a short service-mix burst with a span around every
// request.
func (l *layers) serviceMix(ctx context.Context, o options) error {
	const jobs = 24
	s, err := startServer(filepath.Join(o.work, "traced-server"))
	if err != nil {
		return err
	}
	defer s.stop()
	s.rec = l.rec
	subs := newSubmissions(o.seed)
	outs, _ := s.drive(ctx, subs, time.Now(), jobs)
	var submit, wait, run, fetch, phases []float64
	shared, rejected := 0, 0
	for _, out := range outs {
		l.attempted++
		if out.rejected {
			rejected++
		}
		if !l.checkErr("service job "+out.state.ID, out.err) {
			continue
		}
		submit = append(submit, ms(out.submit))
		fetch = append(fetch, ms(out.fetch))
		if out.state.Shared {
			shared++
			continue
		}
		if out.state.Started != nil && out.state.Finished != nil {
			wait = append(wait, ms(out.state.Started.Sub(out.state.Created)))
			run = append(run, ms(out.state.Finished.Sub(*out.state.Started)))
		}
		phases = append(phases, ms(out.phases))
	}
	l.put("service.submit_ms", median(submit), "ms")
	l.put("service.queue_wait_ms", median(wait), "ms")
	l.put("service.run_ms", median(run), "ms")
	l.put("service.artifact_ms", median(fetch), "ms")
	l.put("service.memo_hit_ratio", float64(shared)/float64(max(len(outs), 1)), "ratio")
	l.put("service.rejected", float64(rejected), "count")
	l.put("share.service-mix.resubmissions", float64(len(subs.specs)/resubmitEvery)/float64(len(subs.specs)), "ratio")
	l.put("telemetry.phases_read_ms", median(phases), "ms")

	runs := s.store.Runs()
	rows := 0
	for _, meta := range runs {
		rs, err := s.store.Query(meta.Run, telemetry.Query{})
		if err != nil {
			l.fail("telemetry query %s: %v", meta.Run, err)
			continue
		}
		rows += len(rs)
	}
	size, err := dirBytes(filepath.Join(s.dir, "telemetry"))
	if err != nil {
		return err
	}
	n := float64(max(len(runs), 1))
	l.put("telemetry.rows_per_job", float64(rows)/n, "count")
	l.put("telemetry.bytes_per_job", float64(size)/n, "bytes")
	return nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// checkpoint runs a service-mix-shaped job with a capture period shorter
// than the run, then times loading and saving the snapshot it wrote.
func (l *layers) checkpoint(ctx context.Context, o options, seed int64) error {
	cfg := repro.DefaultSimulationConfig()
	cfg.Run.FluidRanks = jobRanks
	cfg.Run.Steps = jobSteps
	cfg.Run.NumParticles = jobParticles
	cfg.Run.InjectEvery = 1
	cfg.Run.Seed = seed
	cfg.Run.NS.Inflow = navierstokes.BreathingWaveform{Period: 2 * float64(jobSteps) * cfg.Run.NS.Props.Dt}
	dir := filepath.Join(o.work, "checkpoint")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "job.ckpt")
	var ckptErr error
	cfg.Run.Checkpoint = &checkpoint.Plan{Every: ckptEvery, Path: path, Keep: 1, OnError: func(err error) { ckptErr = err }}
	l.attempted++
	run, err := simulate(ctx, cfg)
	if !l.checkErr("checkpointed run", err) || !l.checkErr("checkpoint capture", ckptErr) {
		return nil
	}
	if err := checkFates(simFates(run.res.Result), jobParticles, jobSteps); err != nil {
		l.fail("checkpointed run: %v", err)
	}
	info, err := os.Stat(path)
	if !l.checkErr("checkpoint file", err) {
		return nil
	}
	snap, err := checkpoint.Load(path)
	if !l.checkErr("checkpoint load", err) {
		return nil
	}
	sc := l.rec.scope("checkpoint", -1)
	copyPath := filepath.Join(dir, "copy.ckpt")
	for i := 0; i < 7; i++ {
		sc.do("checkpoint.LoadMatching", func() { _, err = checkpoint.LoadMatching(path, snap.Fingerprint) })
		if !l.checkErr("checkpoint.LoadMatching", err) {
			return nil
		}
		sc.do("checkpoint.Snapshot.Save", func() { err = snap.Save(copyPath) })
		if !l.checkErr("checkpoint.Save", err) {
			return nil
		}
	}
	l.put("checkpoint.bytes", float64(info.Size()), "bytes")
	l.put("checkpoint.load_ms", l.medMS("checkpoint.LoadMatching", "checkpoint", anyRank), "ms")
	l.put("checkpoint.save_ms", l.medMS("checkpoint.Snapshot.Save", "checkpoint", anyRank), "ms")
	return nil
}
