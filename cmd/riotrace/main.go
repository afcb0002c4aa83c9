// Command riotrace runs an ordered-write workload with stage-level
// tracing at sample rate 1 and exports the retained spans as a Chrome
// trace_event JSON file — load it at chrome://tracing (or in Perfetto)
// to see every sampled request laid out on initiator/fabric/target/
// device lanes, stage by stage.
//
// It also prints the aggregated stage table, so the quick answer to
// "where does the time go?" never needs the browser.
//
// Usage:
//
//	riotrace -o trace.json
//	riotrace -streams 8 -groups 500 -replicas 2 -sample 4 -o trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("riotrace", flag.ContinueOnError)
	var (
		out      = fl.String("o", "trace.json", "output file (chrome://tracing JSON)")
		streams  = fl.Int("streams", 4, "independent ordered streams")
		groups   = fl.Int("groups", 200, "groups submitted per stream")
		targets  = fl.Int("targets", 2, "one-SSD Optane target servers")
		replicas = fl.Int("replicas", 0, "replica-set size (0/1 = unreplicated)")
		sample   = fl.Int("sample", 1, "trace 1-in-N requests")
		seed     = fl.Int64("seed", 1, "RNG seed")
	)
	if fl.Parse(args) != nil {
		return 2
	}

	eng := sim.New(*seed)
	cfg := stack.DefaultConfig(stack.ModeRio, slices.Repeat([]stack.TargetConfig{stack.OptaneTarget()}, *targets)...)
	cfg.Streams = *streams
	cfg.QPs = *streams
	if *replicas > 1 {
		cfg.Replicas = *replicas
	}
	cfg.Trace = trace.Config{SampleEvery: *sample, Keep: *streams * *groups}
	c := stack.New(eng, cfg)
	in := c.Init(0)

	for s := 0; s < *streams; s++ {
		s := s
		eng.Go(fmt.Sprintf("app%d", s), func(p *sim.Proc) {
			for g := 0; g < *groups; g++ {
				r := in.OrderedWrite(p, s, uint64(s*1_000_000+g), 1, 0, nil, true, false, false)
				in.Wait(p, r)
			}
		})
	}
	eng.Run()

	st := c.TraceStats()
	fmt.Fprint(stdout, st.Table(fmt.Sprintf("%d streams × %d groups, 1-in-%d sampled", *streams, *groups, *sample)))

	recs := c.Tracer().Retained()
	f, err := os.Create(*out)
	if err == nil {
		err = trace.WriteChrome(f, recs)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "riotrace:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%d spans) — open at chrome://tracing\n", *out, len(recs))
	return 0
}
