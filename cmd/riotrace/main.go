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
	"os"

	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
	"repro/internal/trace"
)

func main() {
	var (
		out      = flag.String("o", "trace.json", "output file (chrome://tracing JSON)")
		streams  = flag.Int("streams", 4, "independent ordered streams")
		groups   = flag.Int("groups", 200, "groups submitted per stream")
		targets  = flag.Int("targets", 2, "one-SSD Optane target servers")
		replicas = flag.Int("replicas", 0, "replica-set size (0/1 = unreplicated)")
		sample   = flag.Int("sample", 1, "trace 1-in-N requests")
		seed     = flag.Int64("seed", 1, "RNG seed")
	)
	flag.Parse()

	eng := sim.New(*seed)
	tcs := make([]stack.TargetConfig, *targets)
	for i := range tcs {
		tcs[i] = stack.TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig()}}
	}
	cfg := stack.DefaultConfig(stack.ModeRio, tcs...)
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
	fmt.Print(st.Table(fmt.Sprintf("%d streams × %d groups, 1-in-%d sampled", *streams, *groups, *sample)))

	recs := c.Tracer().Retained()
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "riotrace:", err)
		os.Exit(1)
	}
	if err := trace.WriteChrome(f, recs); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, "riotrace:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "riotrace:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d spans) — open at chrome://tracing\n", *out, len(recs))
}
