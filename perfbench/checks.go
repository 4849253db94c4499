package main

import (
	"fmt"
	"os"
)

// tally counts the operations a run attempted and those that failed: an
// error, a refusal, or an output that failed a check.
type tally struct {
	attempted, failed int
}

// fail records one failed operation and says why on stderr.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// checkErr records a failure when err is set and reports whether the
// operation may go on to its output checks.
func (t *tally) checkErr(op string, err error) bool {
	if err != nil {
		t.fail("%s: %v", op, err)
		return false
	}
	return true
}

// fates are a simulation's particle counts.
type fates struct {
	Injected, Deposited, Exited, Airborne int
}

// checkFates holds for any correct version: every injected particle has
// exactly one fate, and the run released particles × releases of them.
func checkFates(f fates, particles, releases int) error {
	if f.Injected != f.Deposited+f.Exited+f.Airborne {
		return fmt.Errorf("injected %d != deposited %d + exited %d + airborne %d",
			f.Injected, f.Deposited, f.Exited, f.Airborne)
	}
	if want := particles * releases; f.Injected != want {
		return fmt.Errorf("injected %d != %d particles x %d releases", f.Injected, particles, releases)
	}
	return nil
}

// repeats remembers the first output seen under each key and reports
// any later output that differs: runs the program promises are
// deterministic must repeat byte for byte.
type repeats map[string]string

func (r repeats) check(key, out string) error {
	first, seen := r[key]
	if !seen {
		r[key] = out
		return nil
	}
	if out != first {
		return fmt.Errorf("repeat of %s differs from its first run", key)
	}
	return nil
}
