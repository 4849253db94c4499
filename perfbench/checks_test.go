package main

import (
	"fmt"
	"testing"

	"repro/scenario"
)

func TestCheckFatesFlagsWrongCounts(t *testing.T) {
	good := fates{Injected: 2000, Deposited: 120, Exited: 30, Airborne: 1850}
	if err := checkFates(good, 2000, 1); err != nil {
		t.Fatalf("conserving counts flagged: %v", err)
	}
	lost := good
	lost.Airborne-- // one particle has no fate
	if checkFates(lost, 2000, 1) == nil {
		t.Error("a particle without a fate was not flagged")
	}
	if checkFates(good, 1000, 1) == nil {
		t.Error("injected != particles x releases was not flagged")
	}
	dosing := fates{Injected: 60000, Airborne: 60000}
	if err := checkFates(dosing, 3000, 20); err != nil {
		t.Errorf("20 releases of 3000 flagged: %v", err)
	}
}

func TestRepeatsFlagsDifferentOutput(t *testing.T) {
	r := repeats{}
	if r.check("seed=1", "a") != nil || r.check("seed=2", "b") != nil {
		t.Fatal("first outputs flagged")
	}
	if err := r.check("seed=1", "a"); err != nil {
		t.Errorf("identical repeat flagged: %v", err)
	}
	if r.check("seed=2", "c") == nil {
		t.Error("a differing repeat was not flagged")
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	tl.attempted = 3
	if !tl.checkErr("run", nil) {
		t.Fatal("nil error stopped the checks")
	}
	tl.fail("output check %d", 1)
	if tl.checkErr("run", errTest{}) {
		t.Error("an error let the checks go on")
	}
	if tl.failed != 2 {
		t.Errorf("failed = %d, want 2", tl.failed)
	}
}

type errTest struct{}

func (errTest) Error() string { return "boom" }

// sweepArtifact builds the table a correct sweep returns for axes, with
// every particle still airborne.
func sweepArtifact(axes scenario.SweepAxes) *scenario.Artifact {
	var rows []scenario.TableRow
	for _, pt := range axes.Grid() {
		rows = append(rows, scenario.TableRow{Label: pt.Label(), Values: []float64{
			pt.Diameter * 1e6, pt.Flow, float64(pt.MeshGens), sweepParticles, 0, 0, sweepParticles, 0}})
	}
	return &scenario.Artifact{Kind: scenario.KindTable, Tables: []scenario.Table{{Rows: rows}}}
}

func TestCheckSweepFlagsWrongRow(t *testing.T) {
	axes := sweepAxes(7)
	if err := checkSweep(sweepArtifact(axes), axes); err != nil {
		t.Fatalf("correct sweep table flagged: %v", err)
	}
	lost := sweepArtifact(axes)
	lost.Tables[0].Rows[5].Values[6]-- // a particle without a fate
	if checkSweep(lost, axes) == nil {
		t.Error("a row that loses a particle was not flagged")
	}
	short := sweepArtifact(axes)
	short.Tables[0].Rows = short.Tables[0].Rows[1:]
	if checkSweep(short, axes) == nil {
		t.Error("a missing grid point was not flagged")
	}
}

func TestSweepGridShape(t *testing.T) {
	axes := sweepAxes(1)
	if n := axes.Cardinality(); n != 36 {
		t.Fatalf("grid has %d points, want 36", n)
	}
	if got, want := reuseShare(axes), 33.0/36; got != want {
		t.Errorf("reuse share %v, want %v", got, want)
	}
	if a, b := sweepAxes(1), sweepAxes(1); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("the same seed drew different grids")
	}
}

func TestEveryFourthSubmissionRepeats(t *testing.T) {
	subs := newSubmissions(3)
	seen := map[jobSpec]bool{}
	for k := 0; k < 40; k++ {
		spec := subs.next()
		if repeat := k%resubmitEvery == resubmitEvery-1; repeat != seen[spec] {
			t.Fatalf("submission %d: repeat=%v, seen before=%v", k, repeat, seen[spec])
		}
		seen[spec] = true
	}
}
