// Command riobench regenerates the paper's tables and figures. Each
// experiment builds fresh simulated clusters, drives the paper's workload
// and prints the corresponding rows/series.
//
// Usage:
//
//	riobench -list
//	riobench -exp fig10b
//	riobench -exp all -quick
//	riobench -exp scale,replication,policy -quick -json out.json
//	riobench -exp scale -quick -trace 16          # append stage breakdowns
//	riobench -exp scale -quick -repeat 5 -json out.json   # mean/std metrics
//	riobench -exp all -quick -digest              # one schedule digest per point
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

// jsonReport is the schema riobench -json writes: every experiment's
// metrics — its named headlines and one per table cell (bench.Run) — so
// BENCH_*.json files track the perf trajectory PR-over-PR. With -repeat 1
// (the default) each metric is a plain number; with -repeat N>1 it is
// {"mean":…,"std":…} over N runs with distinct seeds (population std;
// benchdiff reads the mean).
type jsonReport struct {
	Schema      int            `json:"schema"`
	Quick       bool           `json:"quick"`
	Seed        int64          `json:"seed"`
	Experiments []string       `json:"experiments"`
	Metrics     map[string]any `json:"metrics"`
}

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		quick    = flag.Bool("quick", false, "shorter windows and sweeps")
		seed     = flag.Int64("seed", 1, "base RNG seed")
		list     = flag.Bool("list", false, "list experiment ids")
		jsonPath = flag.String("json", "", "write the metrics to this file")
		repeat   = flag.Int("repeat", 1, "run each experiment N times with seeds seed..seed+N-1; metrics become {mean,std}")
		traceN   = flag.Int("trace", 0, "sample 1-in-N requests for stage-level tracing and append the breakdown (0 = off)")
		digest   = flag.Bool("digest", false, "print each experiment point's schedule digest (never written to -json)")
	)
	flag.Parse()

	if *list {
		for _, n := range bench.Names() {
			fmt.Println(n)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "riobench: -exp required (or -list); e.g. riobench -exp fig10b")
		os.Exit(2)
	}
	if *repeat < 1 {
		*repeat = 1
	}
	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = bench.Names()
	}
	report := jsonReport{Schema: 1, Quick: *quick, Seed: *seed, Metrics: map[string]any{}}
	samples := map[string][]float64{} // metric key -> one value per repeat
	for _, n := range names {
		start := time.Now()
		for rep := 0; rep < *repeat; rep++ {
			opts := bench.Options{Quick: *quick, Seed: *seed + int64(rep), TraceSample: *traceN, Digest: *digest}
			r, err := bench.Run(n, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "riobench:", err)
				os.Exit(1)
			}
			if rep == 0 {
				fmt.Print(r.Render())
			}
			for _, d := range r.Digests {
				fmt.Printf("digest %s seed=%d %s %016x\n", n, *seed+int64(rep), d.Point, d.Sum)
			}
			for k, v := range r.Metrics {
				samples[k] = append(samples[k], v)
			}
		}
		// Wall time goes to stderr so stdout, a deterministic function of
		// the flags, can be compared byte for byte across builds.
		if *repeat > 1 {
			fmt.Fprintf(os.Stderr, "(%s wall time: %.1fs over %d seeded runs)\n", n, time.Since(start).Seconds(), *repeat)
		} else {
			fmt.Fprintf(os.Stderr, "(%s wall time: %.1fs)\n", n, time.Since(start).Seconds())
		}
		fmt.Println()
		report.Experiments = append(report.Experiments, n)
	}
	for k, vs := range samples {
		if *repeat == 1 {
			report.Metrics[k] = vs[0]
		} else {
			m, s := meanStd(vs)
			report.Metrics[k] = map[string]float64{"mean": m, "std": s}
		}
	}
	if *jsonPath != "" {
		sort.Strings(report.Experiments)
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "riobench:", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "riobench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d metrics)\n", *jsonPath, len(report.Metrics))
	}
}

// meanStd returns the mean and population standard deviation.
func meanStd(vs []float64) (float64, float64) {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	m := sum / float64(len(vs))
	var ss float64
	for _, v := range vs {
		ss += (v - m) * (v - m)
	}
	return m, math.Sqrt(ss / float64(len(vs)))
}
