// Command riocrash runs plans of the crash harness (internal/crash): seed N
// draws a legal configuration, a traffic shape and a cut schedule, runs it —
// traffic, cut, quiesce, recover under survivor traffic, resume, drain — and
// checks the whole recovery contract. It runs exactly the plans the tests run;
// a failing plan prints the one line that reproduces it.
//
// Usage:
//
//	riocrash -seed N [-n K] [-set key=value …] [-v]
//
// -n runs plans N … N+K-1, every one of them — a failing plan prints its repro
// line and the run goes on — and ends with `f of K plans break the contract`
// and a histogram of what was drawn; the exit status is 1 iff f > 0. Each
// -set pins one dimension instead of drawing it (`riocrash -set help` lists
// them); the rest is still drawn from the seed. Without -seed a fresh seed is
// drawn and printed. -v prints every cut and recovery of a run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/crash"
)

type sets []string

func (s *sets) String() string     { return fmt.Sprint(*s) }
func (s *sets) Set(v string) error { *s = append(*s, v); return nil }

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("riocrash", flag.ContinueOnError)
	seed := fs.Int64("seed", 0, "first plan to run (0 = draw one and print it)")
	n := fs.Int("n", 1, "number of consecutive plans")
	verbose := fs.Bool("v", false, "print every cut and recovery")
	var pins sets
	fs.Var(&pins, "set", "pin one dimension: key=value (repeatable)")
	if fs.Parse(args) != nil {
		return 2
	}
	if *seed == 0 {
		*seed = time.Now().UnixNano()%1_000_000_000 + 1
	}
	var plans []crash.Plan
	failed := 0
	for s := *seed; s < *seed+int64(*n); s++ {
		pl, err := crash.Draw(s, pins...)
		if err != nil {
			fmt.Fprintln(out, err)
			return 2
		}
		plans = append(plans, pl)
		fmt.Fprintf(out, "plan %d: %v\n", s, pl)
		res, err := pl.Run()
		if *verbose {
			fmt.Fprintln(out, "  "+strings.Join(res.Log, "\n  "))
		}
		if err != nil {
			failed++
			fmt.Fprintf(out, "  FAIL: %v\nreproduce with: %s\n", err, pl.Repro())
			continue
		}
		fmt.Fprintf(out, "  ok: %v\n", res)
	}
	if *n > 1 {
		fmt.Fprintf(out, "%d of %d plans break the contract; drawn:\n%s", failed, *n, crash.Histogram(plans))
	}
	if failed > 0 {
		return 1
	}
	return 0
}
