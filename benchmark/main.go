// Command benchmark is the repository's two-clock benchmark: it drives
// stack, fs, kv and rio from its own seeded load generators through seven
// named workloads and reports, per workload, what the simulated system
// achieved (simulated clock) beside what simulating it cost (host clock,
// Go allocations), end to end and layer by layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/trace"
)

// reps is R: the distinct seeds each workload runs.
const reps = 5

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	short     bool
	selfcheck bool
	describe  bool
}

func (c config) traced() bool { return c.trace == 1 }

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the load generators and the simulator")
	flag.IntVar(&cfg.seconds, "seconds", 0, "keep repeating a workload until its runs add up to this many host seconds (0 = exactly 5 runs)")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = also make the traced runs and report the per-layer metrics")
	flag.BoolVar(&cfg.short, "short", false, "smoke run: 1 ms simulated windows, one run per workload")
	flag.BoolVar(&cfg.selfcheck, "selfcheck", false, "run the whole set twice and fail unless the two agree within the metrics' own bounds")
	flag.BoolVar(&cfg.describe, "describe", false, "print BENCHMARK.json as the metric and workload tables define it, and exit")
	flag.Parse()
	if cfg.describe {
		fmt.Println(describe())
		return
	}
	// The simulator runs one goroutine at a time. A second P adds nothing
	// but cross-thread wake-ups on every proc switch: on the 2-core sandbox
	// it made host_ns_per_op 40 % slower and its run-to-run range five
	// times wider. GOMAXPROCS in the environment overrides.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	var chosen []workload
	for _, w := range workloads {
		if cfg.workload == "all" || cfg.workload == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	fmt.Printf("# rio two-clock benchmark: %s, nproc %d, GOMAXPROCS %d, seed %d, trace %d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, cfg.trace)

	first, err := runSet(chosen, cfg)
	if err != nil {
		return err
	}
	ok := true
	if cfg.selfcheck {
		second, err := runSet(chosen, cfg)
		if err != nil {
			return err
		}
		ok = compareSets(first, second)
	} else {
		for _, s := range first {
			s.print(cfg.traced())
		}
	}
	for _, s := range first {
		for _, why := range s.why {
			fmt.Printf("FAILED CHECK %s: %s\n", s.w.name, why)
		}
		ok = ok && s.failed == 0
	}
	if len(chosen) == 1 {
		// The driver's contract: one JSON object as the last line.
		line, err := first[0].jsonLine(cfg.traced())
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if !ok {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// summary collects the runs of one workload.
type summary struct {
	w         workload
	e2e       map[string][]float64 // per metric: one value per counted run
	layer     map[string][]float64 // traced runs
	tracedNs  []float64            // host_ns_per_op of the traced runs
	prof      *profiler            // CPU profiles of the traced runs' windows
	simBySeed map[int64]map[string]float64
	spent     time.Duration // host time its runs took, set-up included
	runs      int
	samples   int
	attempted int64
	failed    int64
	why       []string
}

// baseSim computes the five base simulated metrics of a window.
func baseSim(w *window) map[string]float64 {
	return map[string]float64{
		"sim_kiops":              kiops(w),
		"sim_p50_us":             float64(percentile(w.lat, 0.50)) / 1e3,
		"sim_p99_us":             float64(percentile(w.lat, 0.99)) / 1e3,
		"sim_init_cpu_us_per_op": perOp(float64(w.initBusy)/1e3, w.ops),
		"sim_tgt_cpu_us_per_op":  perOp(float64(w.tgtBusy)/1e3, w.ops),
	}
}

// endToEndOf turns one run into its end-to-end metric values.
func endToEndOf(r *result) map[string]float64 {
	pt := r.point
	if pt == nil {
		pt = r.total
	}
	m := baseSim(pt)
	for k, v := range r.sim {
		m[k] = v
	}
	t := r.total
	m["host_ns_per_op"] = perOp(t.host.quietNs, t.ops)
	m["host.cpu_ns_per_op"] = perOp(float64(t.host.ns), t.ops)
	m["host.wall_ns_per_op"] = perOp(float64(t.host.wallNs), t.ops)
	m["host.yardstick_ns"] = perOp(t.host.yardNs, t.host.yardReadings)
	m["go_allocs_per_op"] = perOp(float64(t.host.allocs), t.ops)
	m["go_bytes_per_op"] = perOp(float64(t.host.bytes), t.ops)
	m["setup_s"] = t.setup.Seconds()
	return m
}

// layerOfRun turns one traced run into its per-workload layer metrics.
func layerOfRun(r *result) map[string]float64 {
	w := r.total
	cmds := w.ts.Commands
	m := map[string]float64{
		"order.holdbacks_per_kcmd":       1000 * perOp(float64(w.ts.Holdbacks), cmds),
		"order.gate_audit":               float64(w.audits),
		"core.pmr_appends_per_cmd":       perOp(float64(w.ts.PMRAppends), cmds),
		"core.pmr_toggles_per_cmd":       perOp(float64(w.ts.PMRToggles), cmds),
		"ssd.channel_util":               perOp(float64(w.ssdChanBusy), int64(w.chanNs)),
		"ssd.writes_per_op":              perOp(float64(w.ssdWrites), w.ops),
		"ssd.flushes_per_kop":            1000 * perOp(float64(w.ssdFlushes), w.ops),
		"ssd.flush_busy_share":           perOp(float64(w.ssdFlushBusy), int64(w.ssdNs)),
		"ssd.sat_stall_us_per_op":        perOp(float64(w.ssdSatStall)/1e3, w.ops),
		"stack.batch_occupancy":          w.cs.Batch.Occupancy(),
		"stack.cqe_batch_occupancy":      w.cs.CplBatch.Occupancy(),
		"stack.completion_msgs_per_op":   perOp(float64(w.cs.CplBatch.Rings), w.ops),
		"stack.tx_msgs_per_op":           perOp(float64(w.cs.TxMsgs), w.ops),
		"stack.tx_bytes_per_op":          perOp(float64(w.cs.TxBytes), w.ops),
		"stack.wire_cmds_per_op":         perOp(float64(w.cs.WireCmds), w.ops),
		"stack.fused_share":              perOp(float64(w.cs.FusedCmds), w.cs.WireCmds+w.cs.FusedCmds),
		"stack.pool_hit_rate":            w.cs.Pool.HitRate(),
		"stack.reap_cpu_ns_per_op":       perOp(float64(w.cs.ReapCPU), w.ops),
		"stack.submit_stalls_per_kop":    1000 * perOp(float64(w.cs.SubmitStalls), w.ops),
		"stack.gov_switches":             float64(w.cs.GovSwitches + w.ts.GovSwitches),
		"stack.rcache_hit_rate":          w.rc.HitRate(),
		"stack.rcache_evictions_per_kop": 1000 * perOp(float64(w.rc.Evictions), w.ops),
		"stack.readahead_hit_share":      perOp(float64(w.rc.ReadAheadHits), w.rc.ReadAheadIssued),
		"stack.relay_agg_fires_per_op":   perOp(float64(w.ts.AggFires), w.ops),
		"trace.sampled":                  float64(w.tr.Sampled),
		"trace.budget_p99_ratio":         w.budget,
		"bench.submit_call.p99_us":       p99us(w.calls.submit),
		"bench.wait_call.p99_us":         p99us(w.calls.wait),
		"kv.put_p99_us":                  p99us(w.calls.put),
		"kv.get_p99_us":                  p99us(w.calls.get),
		"loadgen.lateness_us":            float64(w.lateMax) / 1e3,
	}
	for i := 0; i < trace.NumStages; i++ {
		m["stage."+trace.StageName(i)+".p99_us"] = float64(w.tr.Stages[i].P99()) / 1e3
	}
	for wt := trace.Wait(0); wt < trace.NumWaits; wt++ {
		m["wait."+trace.WaitName(wt)+".us_per_op"] = w.tr.WaitMeanPerOp(wt) / 1e3
	}
	for k, v := range r.layer {
		m[k] = v
	}
	return m
}

func p99us(ns []int64) float64 { return float64(percentile(sortedCopy(ns), 0.99)) / 1e3 }

// subSeed is the seed of a workload's i-th run: reps distinct seeds per
// benchmark seed, then around again (a repeat must reproduce the
// simulated metrics of its first occurrence bit for bit).
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i%reps) }

// runSet runs the chosen workloads round-robin, one run each per round,
// until each has its reps and its runs add up to -seconds.
func runSet(chosen []workload, cfg config) ([]*summary, error) {
	minRuns := reps
	if cfg.short {
		minRuns = 1
	}
	budget := time.Duration(cfg.seconds) * time.Second
	var micro map[string]float64
	if cfg.traced() {
		// A traced round is two runs; two distinct seeds bound its length.
		if minRuns > 2 {
			minRuns = 2
		}
		t0 := time.Now()
		micro = layerBenchmarks(cfg.short)
		budget -= time.Since(t0) // the layer loops count against -seconds
	}
	var set []*summary
	for _, w := range chosen {
		s := &summary{w: w, e2e: map[string][]float64{}, layer: map[string][]float64{},
			simBySeed: map[int64]map[string]float64{}}
		if cfg.traced() {
			var err error
			if s.prof, err = newProfiler(); err != nil {
				return nil, err
			}
			defer s.prof.remove()
		}
		set = append(set, s)
	}
	for round, busy := 0, true; busy; round++ {
		busy = false
		for _, s := range set {
			if s.runs >= minRuns && s.spent >= budget {
				continue
			}
			t0 := time.Now()
			seed := subSeed(cfg.seed, round)
			plain := s.w.run(seed, options{short: cfg.short})
			s.take(seed, plain, false)
			if cfg.traced() {
				traced := s.w.run(seed, options{short: cfg.short, traced: true, prof: s.prof})
				s.take(seed, traced, true)
			}
			s.runs++
			s.spent += time.Since(t0)
			busy = true
		}
	}
	if cfg.traced() {
		for _, s := range set {
			shares, err := s.prof.shares()
			if err != nil {
				return nil, err
			}
			for _, b := range hostShareNames {
				s.layer["host_share."+b] = []float64{shares[b]}
			}
			for k, v := range micro {
				s.layer[k] = []float64{v}
			}
			plain := median(s.e2e["host_ns_per_op"])
			s.layer["trace.host_overhead_pct"] = []float64{100 * (median(s.tracedNs) - plain) / plain}
		}
	}
	return set, nil
}

// take folds one run into the summary. Host metrics count every untraced
// run; simulated metrics count the first run of each seed, and every
// later run of that seed — a repeat, or its traced twin — must reproduce
// them exactly.
func (s *summary) take(seed int64, r *result, traced bool) {
	t := r.total
	s.attempted += t.ops + t.failed
	s.failed += t.failed
	s.why = append(s.why, t.why...)
	s.samples = len(t.lat)
	if r.point != nil {
		s.samples = len(r.point.lat)
	}
	vals := endToEndOf(r)
	firstOfSeed := s.simBySeed[seed] == nil
	if firstOfSeed {
		s.simBySeed[seed] = vals
	}
	for _, m := range allEndToEnd() {
		v, has := vals[m.name]
		if !has {
			continue
		}
		if m.simMetric() {
			if firstOfSeed {
				s.e2e[m.name] = append(s.e2e[m.name], v)
			} else if want := s.simBySeed[seed][m.name]; v != want {
				s.failed++
				s.why = append(s.why, fmt.Sprintf("%s of seed %d did not repeat: %v then %v (traced=%v)",
					m.name, seed, want, v, traced))
			}
		} else if !traced {
			s.e2e[m.name] = append(s.e2e[m.name], v)
		}
	}
	if traced {
		for k, v := range layerOfRun(r) {
			s.layer[k] = append(s.layer[k], v)
		}
		s.tracedNs = append(s.tracedNs, vals["host_ns_per_op"])
	} else {
		for _, m := range uncalibrated {
			s.layer[m.name] = append(s.layer[m.name], vals[m.name])
		}
	}
}

func (s *summary) print(layers bool) {
	fmt.Printf("\n## %s: %d runs, %d latency samples per run, %d of %d operations failed\n",
		s.w.name, s.runs, s.samples, s.failed, s.attempted)
	fmt.Printf("%-34s %14s %14s %14s  %-6s %-5s %-7s %s\n", "metric", "value", "q1", "q3", "unit", "clock", "better", "bound")
	for _, m := range allEndToEnd() {
		if runs := s.e2e[m.name]; len(runs) > 0 {
			printRow(m, runs, fmt.Sprintf("%g%%", 100*m.bound))
		}
	}
	printRow(metric{name: "ops_failed_share", unit: "share", clock: "sim", better: "lower"},
		[]float64{perOp(float64(s.failed), s.attempted)}, "exact")
	if layers {
		for _, m := range perLayer {
			printRow(m, s.layer[m.name], "-")
		}
	} else {
		for _, m := range uncalibrated {
			printRow(m, s.layer[m.name], "-")
		}
	}
}

func printRow(m metric, vals []float64, bound string) {
	q1, q3 := quartiles(vals)
	fmt.Printf("%-34s %14.4f %14.4f %14.4f  %-6s %-5s %-7s %s\n", m.name, median(vals), q1, q3, m.unit, m.clock, m.better, bound)
}

// jsonLine is the driver's result line: every end-to-end metric untraced,
// every per-layer metric (and endToEndOnOne, 0 where it does not exist)
// traced.
func (s *summary) jsonLine(layers bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]value{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	if layers {
		for _, m := range perLayer {
			out.Metrics[m.name] = value{median(s.layer[m.name]), m.unit}
		}
		for _, m := range endToEndOnOne {
			out.Metrics[m.name] = value{median(s.e2e[m.name]), m.unit}
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.name] = value{median(s.e2e[m.name]), m.unit}
		}
	}
	for name, v := range out.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return "", fmt.Errorf("metric %s of %s is not a number", name, s.w.name)
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// compareSets prints two sets of runs side by side and reports whether
// they agree: simulated metrics bit-identical, host metrics with the
// second median not worse than the first by more than the bound.
func compareSets(a, b []*summary) bool {
	ok := true
	for i, s := range a {
		t := b[i]
		fmt.Printf("\n## %s: %d and %d runs\n", s.w.name, s.runs, t.runs)
		fmt.Printf("%-26s %12s %12s %12s | %12s %12s %12s  %8s %s\n", "metric",
			"value", "q1", "q3", "value", "q1", "q3", "change", "verdict")
		for _, m := range allEndToEnd() {
			x, y := s.e2e[m.name], t.e2e[m.name]
			if len(x) == 0 {
				continue
			}
			mx, my := median(x), median(y)
			change := (my - mx) / mx
			if m.better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case m.simMetric() && !slices.Equal(x, y):
				verdict = "NOT IDENTICAL"
			case !m.simMetric() && change > m.bound:
				verdict = fmt.Sprintf("WORSE BY MORE THAN %g%%", 100*m.bound)
			}
			ok = ok && verdict == "ok"
			q1x, q3x := quartiles(x)
			q1y, q3y := quartiles(y)
			fmt.Printf("%-26s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f  %+7.2f%% %s\n",
				m.name, mx, q1x, q3x, my, q1y, q3y, 100*change, verdict)
		}
		if s.failed != t.failed {
			ok = false
			fmt.Printf("ops failed: %d then %d\n", s.failed, t.failed)
		}
	}
	if !ok {
		fmt.Println("\nselfcheck: the two sets DISAGREE")
	} else {
		fmt.Println("\nselfcheck: the two sets agree")
	}
	return ok
}

// runSeconds is the run budget the driver passes as --seconds.
const runSeconds = 15

// describe renders BENCHMARK.json from the workload and metric tables.
func describe() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range append(slices.Clone(perLayer), endToEndOnOne...) {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	b, _ := json.MarshalIndent(doc, "", "  ") // plain strings and numbers: cannot fail
	return string(b)
}
