package main

import (
	"bytes"
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
	// A plan that breaks the contract stops the run, exits 1 and prints the line
	// that reproduces it (here a recorded finding, let through by name: one of
	// four seeds hits it at head); pins no plan can satisfy exit 2.
	var out bytes.Buffer
	pins := " -set cut=target -set devices=fo -set victim=0 -set chunk=0 -set commit=2 -set inits=1 -set cache=0 -set allow=1f"
	if code := run(strings.Fields("-seed 1 -n 4"+pins), &out); code != 1 || !strings.Contains(out.String(), pins+"\n") ||
		!strings.Contains(out.String(), "reproduce with: riocrash -seed ") {
		t.Errorf("riocrash -seed 1 -n 4%s exited %d:\n%s", pins, code, out.String())
	}
	if code := run([]string{"-seed", "1", "-set", "cut=head", "-set", "relay=0"}, &out); code != 2 {
		t.Errorf("an unsatisfiable pin exited %d, want 2", code)
	}
}
