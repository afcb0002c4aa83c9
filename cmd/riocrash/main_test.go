package main

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/crash"
)

// TestSeedIsThePlanTheTestsRun: `riocrash -seed N` draws and runs exactly plan
// N of the harness — the line it prints is the plan's, the outcome the run's —
// and pins travel through -set into the plan and back out of its repro line.
func TestSeedIsThePlanTheTestsRun(t *testing.T) {
	for _, tc := range [][]string{{"-seed", "5"}, {"-seed", "12", "-set", "cut=initiator", "-set", "pmr=64", "-v"}} {
		var pins []string
		for i, a := range tc {
			if a == "-set" {
				pins = append(pins, tc[i+1])
			}
		}
		seed := map[string]int64{"5": 5, "12": 12}[tc[1]]
		pl, err := crash.Draw(seed, pins...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Run()
		if err != nil {
			t.Fatalf("%v: %s", err, pl.Repro())
		}
		var out bytes.Buffer
		if code := run(tc, &out); code != 0 {
			t.Fatalf("riocrash %v exited %d:\n%s", tc, code, out.String())
		}
		want := []string{pl.String(), res.String()}
		if slices.Contains(tc, "-v") {
			want = append(want, res.Log...)
		}
		for _, want := range want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("riocrash %v does not print %q:\n%s", tc, want, out.String())
			}
		}
	}
	// -n measures a rate: every plan runs, each one that breaks the contract
	// prints the line that reproduces it (here a recorded finding, let through
	// by name), the last line counts them, and the exit status is 1 iff any
	// did; pins no plan can satisfy exit 2.
	var out bytes.Buffer
	pins := " -set cut=target -set devices=fo -set victim=0 -set chunk=0 -set commit=2 -set inits=1 -set cache=0 -set allow=1f"
	code := run(strings.Fields("-seed 1 -n 4"+pins), &out)
	failed := strings.Count(out.String(), "reproduce with: riocrash -seed ")
	if code != 1 || failed == 0 || strings.Count(out.String(), "\nplan ") != 3 || !strings.Contains(out.String(), pins+"\n") ||
		!strings.Contains(out.String(), fmt.Sprintf("\n%d of 4 plans break the contract", failed)) {
		t.Errorf("riocrash -seed 1 -n 4%s exited %d:\n%s", pins, code, out.String())
	}
	out.Reset()
	if code := run(strings.Fields("-seed 1 -n 2"), &out); code != 0 || !strings.Contains(out.String(), "\n0 of 2 plans break the contract") {
		t.Errorf("riocrash -seed 1 -n 2 exited %d:\n%s", code, out.String())
	}
	if code := run([]string{"-seed", "1", "-set", "cut=head", "-set", "relay=0"}, &out); code != 2 {
		t.Errorf("an unsatisfiable pin exited %d, want 2", code)
	}
}
