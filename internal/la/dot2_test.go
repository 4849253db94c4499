package la

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/simmpi"
)

// replicatedOps is a distributed Ops in the shape the flow solver uses:
// each rank holds the whole vectors, owns a contiguous block of rows and
// reduces inner products over its block with an allreduce. With fused
// set, Dot2 reduces both partials in one two-element allreduce.
// matVecs hashes the input of every MatVec call, i.e. every search
// direction the solver builds.
func replicatedOps(a *CSRMatrix, c *simmpi.Comm, fused bool, matVecs *[]uint64) Ops {
	n := a.N
	lo, hi := n*c.Rank()/c.Size(), n*(c.Rank()+1)/c.Size()
	ops := Ops{
		N: n,
		MatVec: func(x, y []float64) {
			*matVecs = append(*matVecs, hashVec(x))
			a.MulVec(x, y)
		},
		Dot: func(x, y []float64) float64 {
			return c.AllreduceFloat64(Dot(x[lo:hi], y[lo:hi]), simmpi.OpSum)
		},
	}
	if fused {
		buf := make([]float64, 2)
		ops.Dot2 = func(x1, y1, x2, y2 []float64) (float64, float64) {
			buf[0], buf[1] = Dot(x1[lo:hi], y1[lo:hi]), Dot(x2[lo:hi], y2[lo:hi])
			c.AllreduceFloat64sInto(buf, simmpi.OpSum, buf)
			return buf[0], buf[1]
		}
	}
	return ops
}

func hashVec(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// solveOutcome is everything one rank's solve produced.
type solveOutcome struct {
	stats   SolveStats
	err     error
	x       uint64   // hash of the solution
	matVecs []uint64 // hash of every MatVec input, in order
}

// TestDot2BitIdenticalToTwoDots pins the fused reductions: PCG and
// BiCGSTAB with Ops.Dot2 set produce the same iterates, iteration counts
// and residuals, bit for bit, as with two Dot calls, at 1, 2 and 4
// ranks — both when the solve converges and when it stops at maxIter.
func TestDot2BitIdenticalToTwoDots(t *testing.T) {
	const n = 600
	type solveFunc func(Ops, func(r, z []float64), []float64, []float64, float64, int) (SolveStats, error)
	solvers := []struct {
		name  string
		a     *CSRMatrix
		solve solveFunc
	}{
		{"pcg", chainMatrix(n), PCG},
		{"bicgstab", skewChainMatrix(n), BiCGSTAB},
	}
	b := solverRHS(n, 11)
	for _, sv := range solvers {
		diag := make([]float64, n)
		sv.a.Diagonal(diag)
		precond := JacobiPreconditioner(diag)
		for _, ranks := range []int{1, 2, 4} {
			for _, maxIter := range []int{400, 7} {
				run := func(fused bool) []solveOutcome {
					out := make([]solveOutcome, ranks)
					w, err := simmpi.NewWorld(ranks)
					if err != nil {
						t.Fatal(err)
					}
					if err := w.Run(func(r *simmpi.Rank) {
						o := &out[r.ID()]
						ops := replicatedOps(sv.a, r.Comm, fused, &o.matVecs)
						x := make([]float64, n)
						o.stats, o.err = sv.solve(ops, precond, b, x, 1e-10, maxIter)
						o.x = hashVec(x)
					}); err != nil {
						t.Fatal(err)
					}
					return out
				}
				plain, fused := run(false), run(true)
				for id := range plain {
					p, f := plain[id], fused[id]
					if p.err != nil || f.err != nil {
						t.Fatalf("%s ranks=%d maxIter=%d rank %d: errors %v / %v", sv.name, ranks, maxIter, id, p.err, f.err)
					}
					if p.stats != f.stats || p.x != f.x {
						t.Errorf("%s ranks=%d maxIter=%d rank %d: Dot2 changed the solve: %+v x=%x vs %+v x=%x",
							sv.name, ranks, maxIter, id, f.stats, f.x, p.stats, p.x)
					}
					if len(p.matVecs) != len(f.matVecs) {
						t.Fatalf("%s ranks=%d maxIter=%d rank %d: %d vs %d MatVecs", sv.name, ranks, maxIter, id, len(f.matVecs), len(p.matVecs))
					}
					for k := range p.matVecs {
						if p.matVecs[k] != f.matVecs[k] {
							t.Fatalf("%s ranks=%d maxIter=%d rank %d: iterate %d differs", sv.name, ranks, maxIter, id, k)
						}
					}
				}
				if maxIter == 400 && !plain[0].stats.Converged {
					t.Errorf("%s ranks=%d: did not converge in %d iterations", sv.name, ranks, maxIter)
				}
			}
		}
	}
}
