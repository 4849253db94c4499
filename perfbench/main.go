// Command perfbench is the repository's benchmark. It runs one workload
// through the public entry points, checks every output, and prints the
// end-to-end metrics; with -trace 1 it instead runs the traced layer
// suite and prints the per-layer metrics. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sync-long --seed 1 --seconds 15 --trace 0
//
// Workloads (each loads a different layer, so an optimisation of one
// layer shows on one workload and leaves another unchanged):
//
//   - sync-long: synchronous mode, 2 ranks x 1 worker, 3-generation
//     airway, one 2000-particle bolus, 30 steps. Step time dominates
//     (SpMV inside the solvers); set-up is a few percent of a run.
//   - coupled-dosing: coupled mode, 1 fluid + 1 particle rank, DLB on,
//     3000 particles released every step. The particle tracker and the
//     fluid-to-particle velocity shipment dominate.
//   - sweep-grid: the registered "sweep" scenario on a 4 x 3 x 3 grid.
//     Set-up (mesh, partition, plan) dominates and 33 of 36 points reuse
//     a (mesh, rank count) pair seen earlier in the grid.
//   - service-mix: an in-process job server with on-disk telemetry and
//     checkpoints, driven by two closed-loop clients; every 4th
//     submission repeats an earlier one exactly.
//
// Simulated ranks x workers and client connections stay at or below two.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that measures it.
var workloads = map[string]func(ctx context.Context, o options) (*endToEnd, error){
	"sync-long":      runSyncLong,
	"coupled-dosing": runCoupledDosing,
	"sweep-grid":     runSweepGrid,
	"service-mix":    runServiceMix,
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	window   time.Duration // how long the workload measures
	work     string        // private scratch directory inside the checkout
}

// hardLimit bounds a whole run: the window is stretched until every
// percentile has enough samples, but never past this.
const hardLimit = 150 * time.Second

func main() {
	var o options
	var seconds, traced int
	flag.StringVar(&o.workload, "workload", "", "workload to run")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are made from")
	flag.IntVar(&seconds, "seconds", 15, "how long to measure")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced layer suite instead of the workload")
	flag.Parse()
	if _, ok := workloads[o.workload]; !ok || seconds < 1 || (traced != 0 && traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	o.window = time.Duration(seconds) * time.Second

	// Scratch files live under the checkout, in the directory the build
	// already uses, and are removed on exit.
	work, err := os.MkdirTemp(filepath.Join(".bench_build", "perfbench"), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	o.work = work
	code := run(o, traced == 1)
	if err := os.RemoveAll(work); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

func run(o options, traced bool) int {
	st := takeStamp()
	printJSONLine(map[string]any{"stamp": st, "workload": o.workload, "seed": o.seed, "trace": traced})

	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	var (
		t       tally
		metrics map[string]metric
	)
	if traced {
		lm, tl, err := runTraced(ctx, o, st)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced run: %v\n", err)
			return 1
		}
		t, metrics = tl, lm
	} else {
		e, err := workloads[o.workload](ctx, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
			return 1
		}
		metrics = e.metrics()
		t = e.tally
		e.print(o.workload)
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.fail("metric %s was not measured", name)
			metrics[name] = metric{0, m.Unit}
		}
	}
	if t.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	printJSONLine(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printJSONLine(v any) {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers and strings
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %g kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}
