package main

import (
	"fmt"
	"time"
)

// endToEnd collects one workload's end-to-end samples. Every workload
// reports the same metrics over its own unit of work (op): a time step
// for the simulation workloads, a grid point for the sweep, a job from
// submission to artifact for the service.
type endToEnd struct {
	tally
	op    string          // what one op is
	setup []time.Duration // one per set-up repetition
	runs  []time.Duration // one per simulation
	ops   []time.Duration // latency of each timed op
	done  int             // ops completed, for ops_per_s
	busy  time.Duration   // wall time those ops took, set-up within runs included
	lines []line          // named metrics printed for people
}

// line is one human-readable metric: the workload's own names (step
// time, jobs per second, ...) and its measured properties.
type line struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value; 0 when it is not a statistic
}

func (e *endToEnd) note(name string, value float64, unit string, n int) {
	e.lines = append(e.lines, line{name, value, unit, n})
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. Set-up takes about a millisecond, so many repeats keep the
// median steady.
const setupReps = 51

// timeSetup runs setup setupReps times and records each duration; the
// workload goes on with what the last repetition built.
func (e *endToEnd) timeSetup(setup func() error) error {
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		err := setup()
		e.setup = append(e.setup, time.Since(t0))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	return nil
}

// enough reports whether the ops so far support a p90.
func (e *endToEnd) enough() bool { return len(e.ops) >= samplesFor(0.9) }

// metrics reduces the samples to the end-to-end metrics. A percentile
// without enough samples beyond it counts as a failed run.
func (e *endToEnd) metrics() map[string]metric {
	setup, runs := secondsOf(e.setup), secondsOf(e.runs)
	ops := durationsMS(e.ops)
	p90, ok := percentile(ops, 0.9)
	if !ok {
		e.fail("%d %ss are too few for a p90", len(ops), e.op)
	}
	m := map[string]metric{
		"setup_s":     {median(setup), "s"},
		"run_s":       {median(runs), "s"},
		"op_ms_p50":   {median(ops), "ms"},
		"op_ms_p90":   {p90, "ms"},
		"ops_per_s":   {float64(e.done) / e.busy.Seconds(), "1/s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	e.note("fail_ratio", float64(e.failed)/float64(max(e.attempted, 1)), "ratio", 0)
	e.note("samples."+e.op, float64(len(ops)), "count", 0)
	e.note("samples.run", float64(len(runs)), "count", 0)
	e.note("samples.setup", float64(len(setup)), "count", 0)
	return m
}

func (e *endToEnd) print(workload string) {
	for _, l := range e.lines {
		if l.n > 0 {
			fmt.Printf("%-16s %-34s %14.6g %-6s (n=%d)\n", workload, l.name, l.value, l.unit, l.n)
		} else {
			fmt.Printf("%-16s %-34s %14.6g %s\n", workload, l.name, l.value, l.unit)
		}
	}
}
