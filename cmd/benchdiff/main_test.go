package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func baseMetrics() map[string]float64 {
	return map[string]float64{
		"scale.rio.kiops.s8":                                           1200,
		"scale.rio.p99_us":                                             90,
		"scale.rio.completion_msgs_per_op":                             0.8,
		"replication.rio.kiops.r3":                                     630,
		"replication.rio.failover_blip_us":                             100,
		"replication.rio.completion_msgs_per_op.r3":                    1.89,
		"serve.rio.kiops":                                              200,
		"serve.rio.p99_us":                                             70,
		"serve.rio.fairness_spread":                                    1.05,
		"read.rio.hit_rate":                                            0.92,
		"read.rio.kiops":                                               5000,
		"read.rio.p99_us":                                              5,
		"read.rio.readahead_hits":                                      1025,
		"replication.rio.kiops.r3.relay":                               570,
		"replication.rio.tx_msgs_per_op.r3.relay":                      0.74,
		"replication.rio.completion_msgs_per_op.r3.relay":              0.92,
		"replication.rio.relay_ack_msgs_per_op.r3.relay":               1.28,
		"replication.rio.failover_blip_us.relay":                       83,
		"replication.rio.resync_divergence.relay":                      0,
		"satload.rio.knee_kiops":                                       1035,
		"satload.rio.adaptive_p99low_us":                               53,
		"satload.rio.adaptive_kiops_knee":                              1035,
		"trace.rio.overhead_pct":                                       0,
		"fig10b.target_cpu_efficiency_normalized_to_orderless.rio.x12": 0.82,
	}
}

func TestGateIdenticalPasses(t *testing.T) {
	_, failures := compare(baseMetrics(), baseMetrics(), 0.10, false)
	if len(failures) != 0 {
		t.Fatalf("identical reports failed the gate: %v", failures)
	}
}

func TestGateSmallDriftPasses(t *testing.T) {
	fresh := baseMetrics()
	fresh["scale.rio.kiops.s8"] = 1150 // -4%
	fresh["scale.rio.p99_us"] = 95     // +5.6%
	_, failures := compare(baseMetrics(), fresh, 0.10, false)
	if len(failures) != 0 {
		t.Fatalf("within-threshold drift failed the gate: %v", failures)
	}
}

// TestGateFailsOnInjectedRegression is the ISSUE acceptance check: an
// injected >10% regression in each gated dimension must fail the gate.
func TestGateFailsOnInjectedRegression(t *testing.T) {
	cases := []struct {
		name string
		key  string
		val  float64
	}{
		{"throughput -11%", "scale.rio.kiops.s8", 1200 * 0.89},
		{"p99 +12%", "scale.rio.p99_us", 90 * 1.12},
		{"cpl msgs/op +15% (coalescing decays)", "scale.rio.completion_msgs_per_op", 0.8 * 1.15},
		{"3-way replication throughput -12%", "replication.rio.kiops.r3", 630 * 0.88},
		{"failover blip +20% (degraded path slows)", "replication.rio.failover_blip_us", 100 * 1.20},
		{"3-way cpl msgs/op +22% (majority holds dropped)", "replication.rio.completion_msgs_per_op.r3", 2.435},
		{"serve throughput -15%", "serve.rio.kiops", 200 * 0.85},
		{"serve p99 +20%", "serve.rio.p99_us", 70 * 1.20},
		{"tenant fairness decays (one tenant starved)", "serve.rio.fairness_spread", 1.05 * 1.6},
		{"cache hit rate -20% (invalidation too eager)", "read.rio.hit_rate", 0.92 * 0.80},
		{"read throughput -15%", "read.rio.kiops", 5000 * 0.85},
		{"read p99 +25% (cache misses on the hot path)", "read.rio.p99_us", 5 * 1.25},
		{"knee moves left -15% (saturation earlier)", "satload.rio.knee_kiops", 1035 * 0.85},
		{"adaptive low-load p99 +20% (governor stuck high)", "satload.rio.adaptive_p99low_us", 53 * 1.20},
		{"adaptive knee throughput -12% (governor stuck low)", "satload.rio.adaptive_kiops_knee", 1035 * 0.88},
		{"tracing perturbs the simulation (overhead past the 2% budget)", "trace.rio.overhead_pct", 2.5},
		{"relay win decays -12% (fast path loses to direct)", "replication.rio.kiops.r3.relay", 570 * 0.88},
		{"relay egress creeps +20% (fan-out leaks back to the initiator)", "replication.rio.tx_msgs_per_op.r3.relay", 0.74 * 1.20},
		{"aggregation decays past the 1.5 cpl/op budget", "replication.rio.completion_msgs_per_op.r3.relay", 1.6},
		{"follower acks decoalesce (one message per relayed completion again)", "replication.rio.relay_ack_msgs_per_op.r3.relay", 2.0},
		{"relay head-cut blip +20% (degrade path slows)", "replication.rio.failover_blip_us.relay", 83 * 1.20},
		{"relay resync diverges (head-cut repair lost a write)", "replication.rio.resync_divergence.relay", 3},
		{"prefetcher stops firing (readahead hits collapse)", "read.rio.readahead_hits", 1025 * 0.85},
		{"target CPU efficiency -11% (a slower PMR persist)", "fig10b.target_cpu_efficiency_normalized_to_orderless.rio.x12", 0.82 * 0.89},
	}
	for _, tc := range cases {
		fresh := baseMetrics()
		fresh[tc.key] = tc.val
		if _, failures := compare(baseMetrics(), fresh, 0.10, false); len(failures) == 0 {
			t.Errorf("%s: injected regression passed the gate", tc.name)
		}
	}
}

func TestGateFailsOnMissingMetric(t *testing.T) {
	fresh := baseMetrics()
	delete(fresh, "scale.rio.p99_us")
	if _, failures := compare(baseMetrics(), fresh, 0.10, false); len(failures) == 0 {
		t.Error("missing gated metric passed the gate")
	}
	base := baseMetrics()
	delete(base, "scale.rio.kiops.s8")
	if _, failures := compare(base, baseMetrics(), 0.10, false); len(failures) == 0 {
		t.Error("missing baseline metric passed the gate")
	}
}

func TestNonZeroLowerBetterRelative(t *testing.T) {
	base := baseMetrics()
	base["replication.rio.resync_divergence.relay"] = 2
	fresh := baseMetrics()
	fresh["replication.rio.resync_divergence.relay"] = 2.1
	if _, failures := compare(base, fresh, 0.10, false); len(failures) != 0 {
		t.Fatalf("+5%% divergence on nonzero base failed: %v", failures)
	}
	fresh["replication.rio.resync_divergence.relay"] = 2.5
	if _, failures := compare(base, fresh, 0.10, false); len(failures) == 0 {
		t.Fatal("+25% divergence on nonzero base passed")
	}
}

// TestGateFailsOnUnusableBaseline: a zeroed higher-is-better baseline
// (e.g. a report from a crashed bench run committed by mistake) must
// fail the gate instead of silently approving any fresh value.
func TestGateFailsOnUnusableBaseline(t *testing.T) {
	base := baseMetrics()
	base["scale.rio.kiops.s8"] = 0
	if _, failures := compare(base, baseMetrics(), 0.10, false); len(failures) == 0 {
		t.Fatal("zero higher-is-better baseline passed the gate")
	}
	base["scale.rio.kiops.s8"] = -5
	if _, failures := compare(base, baseMetrics(), 0.10, false); len(failures) == 0 {
		t.Fatal("negative higher-is-better baseline passed the gate")
	}
}

// TestAbsoluteGateIgnoresBaseline: an absolute-budget gate enforces its
// own ceiling — a baseline already inside the budget must not tighten
// it, and a baseline outside it must not loosen it.
func TestAbsoluteGateIgnoresBaseline(t *testing.T) {
	base := baseMetrics()
	base["trace.rio.overhead_pct"] = 1.5 // already ate most of the budget
	fresh := baseMetrics()
	fresh["trace.rio.overhead_pct"] = 1.9 // +27% relative, but inside 2.0 abs
	if _, failures := compare(base, fresh, 0.10, false); len(failures) != 0 {
		t.Fatalf("within-budget overhead failed the absolute gate: %v", failures)
	}
	fresh["trace.rio.overhead_pct"] = 2.1
	if _, failures := compare(base, fresh, 0.10, false); len(failures) == 0 {
		t.Fatal("over-budget overhead passed the absolute gate")
	}
}

// TestLoadRepeatSchema: a -repeat N report encodes every metric as
// {"mean","std"}; benchdiff must read the mean, and mixed encodings in
// one file must both parse.
func TestLoadRepeatSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rep.json")
	body := `{"schema":1,"metrics":{
		"scale.rio.kiops.s8":{"mean":1200,"std":14.2},
		"scale.rio.p99_us":90
	}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	vs := values(r.Metrics)
	if vs["scale.rio.kiops.s8"] != 1200 {
		t.Fatalf("mean not extracted: got %v", vs["scale.rio.kiops.s8"])
	}
	if vs["scale.rio.p99_us"] != 90 {
		t.Fatalf("plain value not extracted: got %v", vs["scale.rio.p99_us"])
	}
}

// writeReport writes metrics as a riobench -json report.
func writeReport(t *testing.T, path string, metrics map[string]float64) {
	t.Helper()
	buf, err := json.Marshal(map[string]any{"schema": 1, "metrics": metrics})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGateComparesBaselineWithPredecessor: the relative thresholds bite on
// what a PR commits. A successor baseline that reproduces exactly (fresh ==
// baseline, as `make bench-gate`'s cmp demands) still fails the gate when it
// lost 20 % of scale.rio.kiops.s8 against its predecessor, or dropped a gated
// key; it passes when it holds the predecessor's numbers. The predecessor is
// the highest number below the baseline's, whatever else lies beside it.
func TestGateComparesBaselineWithPredecessor(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	writeReport(t, file("BENCH_3.json"), map[string]float64{"scale.rio.kiops.s8": 1}) // not the predecessor of 20
	pred := baseMetrics()
	delete(pred, "replication.rio.relay_ack_msgs_per_op.r3.relay") // gated only from BENCH_20 on
	writeReport(t, file("BENCH_15.json"), pred)
	writeReport(t, file("BENCH_30.json"), map[string]float64{"scale.rio.kiops.s8": 1}) // nor is a later one
	for name, tc := range map[string]struct {
		edit func(m map[string]float64)
		want int
	}{
		"holds":            {func(m map[string]float64) {}, 0},
		"kiops.s8 -20%":    {func(m map[string]float64) { m["scale.rio.kiops.s8"] *= 0.8 }, 1},
		"gated key gone":   {func(m map[string]float64) { delete(m, "serve.rio.p99_us") }, 1},
		"abs budget blown": {func(m map[string]float64) { m["trace.rio.overhead_pct"] = 2.5 }, 1},
		// BENCH_15 below lacks this key: the successor introduces it.
		"introduced key, any value": {func(m map[string]float64) { m["replication.rio.relay_ack_msgs_per_op.r3.relay"] = 2.0 }, 0},
	} {
		successor := baseMetrics()
		tc.edit(successor)
		writeReport(t, file("BENCH_20.json"), successor)
		writeReport(t, file("fresh.json"), successor)
		var out bytes.Buffer
		if got := runGate(file("BENCH_20.json"), file("fresh.json"), 0.10, &out); got != tc.want {
			t.Errorf("%s: gate exited %d, want %d\n%s", name, got, tc.want, out.String())
		}
		if !strings.Contains(out.String(), "BENCH_20.json vs "+file("BENCH_15.json")) {
			t.Errorf("%s: the baseline was not compared with BENCH_15.json:\n%s", name, out.String())
		}
	}
	// The key BENCH_20 introduced is held from then on: a fresh run that
	// drops it, or regresses it against BENCH_20, fails.
	writeReport(t, file("BENCH_20.json"), baseMetrics())
	for name, edit := range map[string]func(m map[string]float64){
		"introduced key gone from the fresh run":    func(m map[string]float64) { delete(m, "replication.rio.relay_ack_msgs_per_op.r3.relay") },
		"introduced key regresses in the fresh run": func(m map[string]float64) { m["replication.rio.relay_ack_msgs_per_op.r3.relay"] = 2.0 },
	} {
		fresh := baseMetrics()
		edit(fresh)
		writeReport(t, file("fresh.json"), fresh)
		var out bytes.Buffer
		if got := runGate(file("BENCH_20.json"), file("fresh.json"), 0.10, &out); got != 1 {
			t.Errorf("%s: gate exited %d, want 1\n%s", name, got, out.String())
		}
	}
	// A first baseline has no predecessor: only the fresh run is gated.
	first := t.TempDir()
	writeReport(t, filepath.Join(first, "BENCH_1.json"), baseMetrics())
	var out bytes.Buffer
	if got := runGate(filepath.Join(first, "BENCH_1.json"), filepath.Join(first, "BENCH_1.json"), 0.10, &out); got != 0 {
		t.Fatalf("first baseline: gate exited %d\n%s", got, out.String())
	}
	if got := runGate(filepath.Join(first, "bench.json"), filepath.Join(first, "BENCH_1.json"), 0.10, &out); got != 2 {
		t.Fatalf("a baseline not named BENCH_<N>.json: gate exited %d, want 2", got)
	}
}

// TestGateNamesMovedKeys: each comparison prints how many keys differ or are
// missing on one side, then the first 20 of them, sorted, as "key base → new".
func TestGateNamesMovedKeys(t *testing.T) {
	dir := t.TempDir()
	base := baseMetrics()
	writeReport(t, filepath.Join(dir, "BENCH_1.json"), base)
	fresh := baseMetrics()
	fresh["serve.rio.kiops"] = 190
	delete(fresh, "read.rio.p99_us")
	fresh["fig15a.new.key"] = 3.5
	writeReport(t, filepath.Join(dir, "fresh.json"), fresh)
	var out bytes.Buffer
	runGate(filepath.Join(dir, "BENCH_1.json"), filepath.Join(dir, "fresh.json"), 0.10, &out)
	want := "benchdiff: 3 key(s) differ or are missing on one side (at most 20 named)\n" +
		"  moved fig15a.new.key - → 3.5\n" +
		"  moved read.rio.p99_us 5 → -\n" +
		"  moved serve.rio.kiops 200 → 190\n"
	if !strings.Contains(out.String(), want) {
		t.Fatalf("moved keys not named; want\n%s\ngot\n%s", want, out.String())
	}
	for i := 0; i < 30; i++ {
		fresh[fmt.Sprintf("many.k%02d", i)] = float64(i)
	}
	if got := moved(base, fresh); len(got) != 33 || got[0] != "fig15a.new.key - → 3.5" || got[1] != "many.k00 - → 0" {
		t.Fatalf("moved = %d keys starting %q", len(got), got[:2])
	}
	writeReport(t, filepath.Join(dir, "fresh.json"), fresh)
	out.Reset()
	runGate(filepath.Join(dir, "BENCH_1.json"), filepath.Join(dir, "fresh.json"), 0.10, &out)
	if !strings.Contains(out.String(), "33 key(s) differ or are missing on one side (at most 20 named)\n") ||
		strings.Count(out.String(), "  moved ") != 20 {
		t.Fatalf("a long diff is not cut at 20 keys:\n%s", out.String())
	}
}

// TestGateReadsSeedsFilesWhenBothExist: with a seeds file beside both the
// baseline and its predecessor, the predecessor check compares their means
// (a one-seed drop that the means do not show passes, a drop in the means
// fails however the single-seed files read); with only one side's, it
// compares the single-seed files; the fresh run is always held to the
// single-seed baseline.
func TestGateReadsSeedsFilesWhenBothExist(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	dropped := baseMetrics()
	dropped["serve.rio.kiops"] *= 0.8
	run := func(pred, succ, predSeeds, succSeeds map[string]float64) (int, string) {
		t.Helper()
		for _, f := range []string{"BENCH_15.seeds.json", "BENCH_20.seeds.json"} {
			os.Remove(file(f))
		}
		writeReport(t, file("BENCH_15.json"), pred)
		writeReport(t, file("BENCH_20.json"), succ)
		writeReport(t, file("fresh.json"), succ)
		if predSeeds != nil {
			writeReport(t, file("BENCH_15.seeds.json"), predSeeds)
		}
		if succSeeds != nil {
			writeReport(t, file("BENCH_20.seeds.json"), succSeeds)
		}
		var out bytes.Buffer
		code := runGate(file("BENCH_20.json"), file("fresh.json"), 0.10, &out)
		return code, out.String()
	}
	if code, out := run(baseMetrics(), dropped, baseMetrics(), baseMetrics()); code != 0 ||
		!strings.Contains(out, "BENCH_20.seeds.json vs "+file("BENCH_15.seeds.json")) {
		t.Errorf("one-seed drop the means do not show: exit %d, want 0 over the seeds files\n%s", code, out)
	}
	if code, out := run(baseMetrics(), baseMetrics(), baseMetrics(), dropped); code != 1 {
		t.Errorf("drop in the means: exit %d, want 1\n%s", code, out)
	}
	if code, out := run(baseMetrics(), dropped, nil, baseMetrics()); code != 1 ||
		!strings.Contains(out, "BENCH_20.json vs "+file("BENCH_15.json")) {
		t.Errorf("predecessor without a seeds file: exit %d, want 1 over the single-seed files\n%s", code, out)
	}
	if code, out := run(baseMetrics(), baseMetrics(), baseMetrics(), baseMetrics()); code != 0 ||
		!strings.Contains(out, "fresh.json vs "+file("BENCH_20.json")) {
		t.Errorf("the fresh run must be held to the single-seed baseline: exit %d\n%s", code, out)
	}
}
