package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestNamesAndLimits holds the tables to the limits of the benchmark
// contract: name and unit alphabets, counts, one-line reasons, bounds.
func TestNamesAndLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(allEndToEnd()); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer) + len(endToEndOnOne); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if w.why == "" || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	setup := false
	for _, m := range allEndToEnd() {
		name(m.name)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		setup = setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(allEndToEnd(), perLayer...) {
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
		if m.clock != "sim" && m.clock != "host" {
			t.Errorf("%s: clock %q", m.name, m.clock)
		}
	}
	for _, m := range perLayer {
		name(m.name)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json is what the tables define,
// so it lists exactly what the program emits.
func TestBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(file, &got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal([]byte(describe()), &want); err != nil {
		t.Fatal(err)
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if string(g) != string(w) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with `go run . -describe > ../BENCHMARK.json`")
	}
	if len(file) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(file))
	}
}

// TestReadmeNamesEverything keeps README.md complete: every workload and
// every metric is documented by name.
func TestReadmeNamesEverything(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	for _, w := range workloads {
		if !strings.Contains(text, "`"+w.name+"`") {
			t.Errorf("README.md does not mention workload %s", w.name)
		}
	}
	for _, m := range append(allEndToEnd(), perLayer...) {
		if !strings.Contains(text, "`"+m.name+"`") {
			t.Errorf("README.md does not mention metric %s", m.name)
		}
	}
}

// TestSmoke runs every workload once, untraced and traced, with 1 ms
// simulated windows: the output checks must pass, a traced run must
// reproduce the untraced run's simulated metrics, and both result lines
// must carry every metric of their table.
func TestSmoke(t *testing.T) {
	set, err := runSet(workloads, config{seed: 7, short: true, trace: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range set {
		if s.failed != 0 || s.attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", s.w.name, s.failed, s.attempted, s.why)
		}
		for _, layers := range []bool{false, true} {
			line, err := s.jsonLine(layers)
			if err != nil {
				t.Errorf("%s: %v", s.w.name, err)
				continue
			}
			var res struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("%s: result line: %v", s.w.name, err)
			}
			table := endToEnd
			if layers {
				table = append(slices.Clone(perLayer), endToEndOnOne...)
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s: %d metrics in the result line, table has %d", s.w.name, len(res.Metrics), len(table))
			}
			for _, m := range table {
				v, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s: result line lacks %s", s.w.name, m.name)
				case v.Unit != m.unit:
					t.Errorf("%s: %s has unit %q, table says %q", s.w.name, m.name, v.Unit, m.unit)
				case !layers && (v.Value == 0 || math.IsNaN(v.Value)):
					t.Errorf("%s: end-to-end metric %s is %v", s.w.name, m.name, v.Value)
				case layers && len(s.layer[m.name])+len(s.e2e[m.name]) == 0 && v.Value != 0:
					t.Errorf("%s: %s is %v on a workload that does not produce it", s.w.name, m.name, v.Value)
				}
			}
		}
	}
}

// TestSimulatedClockRepeats runs one workload twice on one seed: every
// simulated metric must come out bit-identical.
func TestSimulatedClockRepeats(t *testing.T) {
	w := workloads[0]
	a := endToEndOf(w.run(11, options{short: true}))
	b := endToEndOf(w.run(11, options{short: true}))
	for _, m := range allEndToEnd() {
		if m.simMetric() && a[m.name] != b[m.name] {
			t.Errorf("%s: %v then %v on the same seed", m.name, a[m.name], b[m.name])
		}
	}
	c := endToEndOf(w.run(12, options{short: true}))
	if a["sim_p99_us"] == c["sim_p99_us"] && a["sim_kiops"] == c["sim_kiops"] {
		t.Error("another seed gave the same simulated metrics: the seed does not reach the load")
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(xs, n=4), which the acceptance driver uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).runWhile":          "sim",
		"container/heap.down":                            "sim",
		"repro/internal/stack.(*Target).rxLoop":          "stack",
		"repro/internal/kv.(*DB).Get":                    "fs_kv",
		"runtime.chanrecv1":                              "runtime_sched",
		"runtime.mallocgcSmallScanNoHeader":              "runtime_alloc_gc",
		"runtime.memmove":                                "other",
		"main.(*load).closedBlock.func1":                 "other",
		"internal/runtime/maps.ctrlGroup.matchH2":        "other",
		"repro/internal/metrics.(*Histogram).Record":     "other",
		"repro/internal/sim.(*Queue[go.shape.int]).Push": "sim",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
