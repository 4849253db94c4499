package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/coupling"
	"repro/internal/dlb"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/navierstokes"
	"repro/internal/particles"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/trace"
)

// The replicas below rebuild coupling's synchronous and coupled step
// loops from exported calls, with a span around each call, so the layer
// times come from outside the program. They must produce the same
// particle counts as the run they replay, and the same trace when DLB is
// off; the traced suite checks both.

// Message tags coupling reserves for the velocity shipment and particle
// migration; the solver's halo tags stay far below them.
const (
	tagVelocity = 1 << 29
	tagMigrate  = 1 << 30
)

// maxEventsPerStep mirrors coupling's per-step trace reservation.
const maxEventsPerStep = 16

// replay is a replicated run: its result in coupling's form plus what
// only the replica sees.
type replay struct {
	res      *coupling.RunResult
	wall     time.Duration // call to the last step, as the untraced run measures it
	solvers  []*navierstokes.Solver
	momIters int // rank 0's total momentum iterations
	presIter int // rank 0's total pressure iterations
	migrated int // particles handed between ranks, all ranks
	work     int64
}

// genMesh builds the airway inside a span, as RunSimulation does before
// it runs.
func genMesh(sc scope, gen func() (*mesh.Mesh, error)) (*mesh.Mesh, error) {
	var m *mesh.Mesh
	var err error
	sc.do("mesh.GenerateAirway", func() { m, err = gen() })
	return m, err
}

// partitionSpans is coupling's partition build with a span per call.
func partitionSpans(sc scope, m *mesh.Mesh, k int, scr *partition.Scratch) ([]*partition.RankMesh, error) {
	var (
		dual *graph.CSR
		p    *partition.Partition
		rms  []*partition.RankMesh
		err  error
	)
	sc.do("mesh.DualByNode", func() { dual = m.DualByNode() })
	sc.do("partition.KWay", func() { p, err = scr.KWay(dual, nil, k) })
	if err != nil {
		return nil, err
	}
	sc.do("partition.BuildRankMeshes", func() { rms, err = scr.BuildRankMeshes(m, p.Parts, k) })
	return rms, err
}

// replayWorld mirrors coupling's world, DLB and per-rank pools.
func replayWorld(cfg coupling.RunConfig, size int) (*simmpi.World, *dlb.DLB, []*tasking.Pool, error) {
	d := dlb.New(cfg.UseDLB)
	rpn := cfg.RanksPerNode
	if rpn <= 0 {
		rpn = size
	}
	world, err := simmpi.NewWorld(size, simmpi.WithRanksPerNode(rpn), simmpi.WithBlockingHooks(d))
	if err != nil {
		return nil, nil, nil, err
	}
	pools := make([]*tasking.Pool, size)
	for r := range pools {
		pools[r] = tasking.NewPool(rpn * cfg.WorkersPerRank)
		pools[r].SetWorkers(cfg.WorkersPerRank)
		if err := d.Register(r, world.NodeOf(r), pools[r], cfg.WorkersPerRank); err != nil {
			closePools(pools[:r+1])
			return nil, nil, nil, err
		}
	}
	return world, d, pools, nil
}

func closePools(pools []*tasking.Pool) {
	for _, p := range pools {
		p.Close()
	}
}

func reserve(tr *trace.Trace, steps int) {
	for _, rt := range tr.Ranks {
		rt.Reserve(steps * maxEventsPerStep)
	}
}

func haloPeers(rm *partition.RankMesh) []int {
	peers := make([]int, 0, len(rm.Halos))
	for _, h := range rm.Halos {
		peers = append(peers, h.Peer)
	}
	return peers
}

func injectNow(cfg coupling.RunConfig, step int) bool {
	return step == 0 || (cfg.InjectEvery > 0 && step%cfg.InjectEvery == 0)
}

func simTimeAt(cfg coupling.RunConfig, step int) float64 {
	return float64(step+1) * cfg.NS.Props.Dt
}

// stopHere is the world-level cancel check a cancellable run makes
// before every step. A stopped replica returns ctx.Err(), as the run
// does.
func stopHere(ctx context.Context, sc scope, c *simmpi.Comm, stopped *atomic.Bool) bool {
	flag := 0
	if ctx.Err() != nil {
		flag = 1
	}
	stop := false
	sc.do("simmpi.AllreduceInt.cancel", func() { stop = c.AllreduceInt(flag, simmpi.OpMax) > 0 })
	if stop {
		stopped.Store(true)
	}
	return stop
}

func must(err error) {
	if err != nil {
		panic(err) // world.Run turns a rank's panic into the run's error
	}
}

// replaySync replays coupling's synchronous loop. After the last step
// every rank assembles the momentum system asmReps more times, timed,
// outside the run's wall time.
func replaySync(ctx context.Context, sc scope, gen func() (*mesh.Mesh, error), cfg coupling.RunConfig, asmReps int) (*replay, error) {
	start := time.Now()
	m, err := genMesh(sc, gen)
	if err != nil {
		return nil, err
	}
	n := cfg.FluidRanks
	scr := cfg.PartitionScratch
	if scr == nil {
		scr = partition.NewScratch()
	}
	rms, err := partitionSpans(sc, m, n, scr)
	if err != nil {
		return nil, err
	}
	world, d, pools, err := replayWorld(cfg, n)
	if err != nil {
		return nil, err
	}
	defer closePools(pools)

	tr := trace.NewTrace(n)
	reserve(tr, cfg.Steps)
	out := &replay{res: &coupling.RunResult{Trace: tr}, solvers: make([]*navierstokes.Solver, n)}
	injected := make([]int, n)
	fatesOf := make([]fates, n)
	migrated := make([]int, n)
	work := make([]int64, n)
	var (
		loopEnd time.Time
		stopped atomic.Bool
	)
	err = world.Run(func(r *simmpi.Rank) {
		id := r.ID()
		rs := sc
		rs.rank = id
		var ns *navierstokes.Solver
		var err error
		rs.do("navierstokes.NewSolver", func() {
			ns, err = navierstokes.NewSolver(m, rms[id], r.Comm, pools[id], cfg.NS, cfg.Cost, tr.Ranks[id])
		})
		must(err)
		var tk *particles.Tracker
		rs.do("particles.NewTracker", func() { tk = particles.NewTracker(m, rms[id].Elems, cfg.Species, cfg.Fluid) })
		tk.SetPool(pools[id])
		peers := haloPeers(rms[id])
		velAt := ns.VelocityAt
		for step := 0; step < cfg.Steps; step++ {
			r.SetStep(step)
			ss, end := rs.open("step")
			if stopHere(ctx, ss, r.Comm, &stopped) {
				end()
				break
			}
			var st navierstokes.StepStats
			ss.do("navierstokes.Step", func() { st, err = ns.Step() })
			must(err)
			if id == 0 {
				out.momIters += st.MomentumIters
				out.presIter += st.PressureIters
			}
			if injectNow(cfg, step) {
				ss.do("particles.InjectAtInletCollectiveAt", func() {
					injected[id] += particles.InjectAtInletCollectiveAt(r.Comm, tk, cfg.NumParticles, cfg.Seed, step,
						cfg.NS.InletVelocityAt(simTimeAt(cfg, step)))
				})
			}
			w0 := tk.WorkUnits
			ss.do("particles.Tracker.Step", func() { tk.Step(cfg.NS.Props.Dt, velAt) })
			var mst particles.MigrationStats
			ss.do("particles.Migrate", func() { mst = particles.Migrate(r.Comm, tk, peers, tagMigrate) })
			migrated[id] += mst.SentOut
			tr.Ranks[id].Advance(trace.PhaseParticles, float64(tk.WorkUnits-w0)*cfg.ParticleUnit)
			var maxClock float64
			ss.do("simmpi.AllreduceFloat64.step", func() { maxClock = r.Comm.AllreduceFloat64(tr.Ranks[id].Clock(), simmpi.OpMax) })
			tr.Ranks[id].AlignTo(maxClock)
			end()
		}
		if id == 0 {
			loopEnd = time.Now()
		}
		a, dd, ee := tk.Counts()
		fatesOf[id] = fates{Injected: injected[id], Deposited: dd, Exited: ee, Airborne: a}
		work[id] = tk.WorkUnits
		out.solvers[id] = ns
		// Collective (halo sums): every rank assembles the same number of
		// times.
		for k := 0; k < asmReps; k++ {
			rs.do("navierstokes.AssembleMomentumForBenchmark", func() { must(ns.AssembleMomentumForBenchmark()) })
		}
	})
	if err == nil && stopped.Load() {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	out.wall = loopEnd.Sub(start)
	out.finish(d, fatesOf, migrated, work)
	return out, nil
}

// finish sums the per-rank outcomes into the result.
func (rp *replay) finish(d *dlb.DLB, fs []fates, migrated []int, work []int64) {
	for i, f := range fs {
		rp.res.Injected += f.Injected
		rp.res.Deposited += f.Deposited
		rp.res.Exited += f.Exited
		rp.res.ActiveEnd += f.Airborne
		rp.migrated += migrated[i]
		rp.work += work[i]
	}
	rp.res.Makespan = rp.res.Trace.MaxClock()
	rp.res.DLB = d.Snapshot()
}

// xfer lists the global nodes one rank ships to (or receives from) a
// rank of the other code.
type xfer struct {
	peer  int
	nodes []int32
}

// velocityLists mirrors coupling's fluid-to-particle shipment plan: each
// fluid rank ships the nodes it owns that a particle rank holds.
func velocityLists(fluidRMs, partRMs []*partition.RankMesh) (sends, recvs [][]xfer) {
	sends = make([][]xfer, len(fluidRMs))
	recvs = make([][]xfer, len(partRMs))
	for fi, frm := range fluidRMs {
		owned := make(map[int32]bool, frm.NumOwned)
		for i, g := range frm.GlobalNode {
			if frm.Owned[i] {
				owned[g] = true
			}
		}
		for pi, prm := range partRMs {
			var nodes []int32
			for _, g := range prm.GlobalNode {
				if owned[g] {
					nodes = append(nodes, g)
				}
			}
			if len(nodes) > 0 {
				sends[fi] = append(sends[fi], xfer{peer: pi, nodes: nodes})
				recvs[pi] = append(recvs[pi], xfer{peer: fi, nodes: nodes})
			}
		}
	}
	return sends, recvs
}

// replayCoupled replays coupling's coupled loop: fluid ranks step the
// flow and ship velocities, particle ranks receive them and track.
func replayCoupled(ctx context.Context, sc scope, gen func() (*mesh.Mesh, error), cfg coupling.RunConfig) (*replay, error) {
	start := time.Now()
	m, err := genMesh(sc, gen)
	if err != nil {
		return nil, err
	}
	f, p := cfg.FluidRanks, cfg.ParticleRanks
	total := f + p
	scr := partition.NewScratch()
	fluidRMs, err := partitionSpans(sc, m, f, scr)
	if err != nil {
		return nil, err
	}
	partRMs, err := partitionSpans(sc, m, p, scr)
	if err != nil {
		return nil, err
	}
	sends, recvs := velocityLists(fluidRMs, partRMs)
	world, d, pools, err := replayWorld(cfg, total)
	if err != nil {
		return nil, err
	}
	defer closePools(pools)

	tr := trace.NewTrace(total)
	reserve(tr, cfg.Steps)
	out := &replay{res: &coupling.RunResult{Trace: tr}, solvers: make([]*navierstokes.Solver, f)}
	injected := make([]int, total)
	fatesOf := make([]fates, total)
	migrated := make([]int, total)
	work := make([]int64, total)
	var stopped atomic.Bool
	err = world.Run(func(r *simmpi.Rank) {
		id := r.ID()
		rs := sc
		rs.rank = id
		isFluid := id < f
		color := 1
		if isFluid {
			color = 0
		}
		sub := r.Comm.Split(color, id)

		if isFluid {
			var ns *navierstokes.Solver
			var err error
			rs.do("navierstokes.NewSolver", func() {
				ns, err = navierstokes.NewSolver(m, fluidRMs[id], sub, pools[id], cfg.NS, cfg.Cost, tr.Ranks[id])
			})
			must(err)
			for step := 0; step < cfg.Steps; step++ {
				r.SetStep(step)
				ss, end := rs.open("step")
				if stopHere(ctx, ss, r.Comm, &stopped) {
					end()
					break
				}
				var st navierstokes.StepStats
				ss.do("navierstokes.Step", func() { st, err = ns.Step() })
				must(err)
				if id == 0 {
					out.momIters += st.MomentumIters
					out.presIter += st.PressureIters
				}
				ss.do("simmpi.SendFloat64Buf.velocity", func() {
					for _, xl := range sends[id] {
						buf := r.Comm.LeaseFloat64s(1 + 3*len(xl.nodes))
						buf.Data[0] = tr.Ranks[id].Clock()
						for i, g := range xl.nodes {
							v := ns.VelocityAt(g)
							buf.Data[1+3*i], buf.Data[2+3*i], buf.Data[3+3*i] = v.X, v.Y, v.Z
						}
						r.Comm.SendFloat64Buf(f+xl.peer, tagVelocity, buf)
					}
				})
				end()
			}
			out.solvers[id] = ns
			return
		}

		pid := id - f
		rm := partRMs[pid]
		var tk *particles.Tracker
		rs.do("particles.NewTracker", func() { tk = particles.NewTracker(m, rm.Elems, cfg.Species, cfg.Fluid) })
		tk.SetPool(pools[id])
		peers := haloPeers(rm)
		vel := make([]mesh.Vec3, rm.NumLocalNodes())
		velAt := func(g int32) mesh.Vec3 {
			if ln := rm.LocalNode[g]; ln >= 0 {
				return vel[ln]
			}
			return mesh.Vec3{}
		}
		for step := 0; step < cfg.Steps; step++ {
			r.SetStep(step)
			ss, end := rs.open("step")
			if stopHere(ctx, ss, r.Comm, &stopped) {
				end()
				break
			}
			senderClock, shipped := 0.0, 0
			ss.do("simmpi.RecvFloat64Buf.velocity", func() {
				for _, xl := range recvs[pid] {
					rb := r.Comm.RecvFloat64Buf(xl.peer, tagVelocity)
					buf := rb.Data
					senderClock = max(senderClock, buf[0])
					for i, g := range xl.nodes {
						if ln := rm.LocalNode[g]; ln >= 0 {
							vel[ln] = mesh.Vec3{X: buf[1+3*i], Y: buf[2+3*i], Z: buf[3+3*i]}
						}
					}
					shipped += len(xl.nodes)
					rb.Release()
				}
			})
			tr.Ranks[id].AlignTo(senderClock + float64(shipped)*cfg.TransferUnit)
			if injectNow(cfg, step) {
				ss.do("particles.InjectAtInletCollectiveAt", func() {
					injected[id] += particles.InjectAtInletCollectiveAt(sub, tk, cfg.NumParticles, cfg.Seed, step,
						cfg.NS.InletVelocityAt(simTimeAt(cfg, step)))
				})
			}
			w0 := tk.WorkUnits
			ss.do("particles.Tracker.Step", func() { tk.Step(cfg.NS.Props.Dt, velAt) })
			var mst particles.MigrationStats
			ss.do("particles.Migrate", func() { mst = particles.Migrate(sub, tk, peers, tagMigrate) })
			migrated[id] += mst.SentOut
			tr.Ranks[id].Advance(trace.PhaseParticles, float64(tk.WorkUnits-w0)*cfg.ParticleUnit)
			var maxClock float64
			ss.do("simmpi.AllreduceFloat64.step", func() { maxClock = sub.AllreduceFloat64(tr.Ranks[id].Clock(), simmpi.OpMax) })
			tr.Ranks[id].AlignTo(maxClock)
			end()
		}
		a, dd, ee := tk.Counts()
		fatesOf[id] = fates{Injected: injected[id], Deposited: dd, Exited: ee, Airborne: a}
		work[id] = tk.WorkUnits
	})
	if err == nil && stopped.Load() {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	out.wall = time.Since(start)
	out.finish(d, fatesOf, migrated, work)
	return out, nil
}

// checkReplay is the fidelity check: the replica reproduces the
// untraced run's particle counts, and its trace when DLB is off.
func checkReplay(cfg coupling.RunConfig, untraced, replica *coupling.RunResult) error {
	if a, b := simFates(untraced), simFates(replica); a != b {
		return fmt.Errorf("replica counts %+v, untraced run %+v", b, a)
	}
	if !cfg.UseDLB && traceText(untraced) != traceText(replica) {
		return fmt.Errorf("replica trace differs from the untraced run's")
	}
	return nil
}
