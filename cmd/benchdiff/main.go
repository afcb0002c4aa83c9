// Command benchdiff is the CI perf gate. The simulator is deterministic and
// `make bench-gate` requires a fresh run to equal the committed baseline
// byte for byte, so what can regress is the baseline a PR commits: benchdiff
// gates the committed BENCH_<N>.json against its predecessor — the
// highest-numbered BENCH_<M>.json below it — and exits non-zero when a gated
// metric moved past the threshold the wrong way (the threshold leaves
// headroom for deliberate trade-offs). When both baselines have a seeds file
// beside them (BENCH_<N>.seeds.json: riobench -repeat output, {mean,std} per
// key), that comparison reads the two seeds files' means instead: a quick
// point's tail metric is one draw, and one seed can flag a move its spread
// over seeds does not show. The fresh run is then held to the same gates
// against the single-seed baseline, which is where the absolute budgets and a
// dropped key bite before the byte comparison does.
//
// Usage:
//
//	benchdiff -baseline BENCH_33.json -new /tmp/bench.json [-threshold 0.10]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// report mirrors the riobench -json schema. Metric values are either a
// plain number (single run) or {"mean":…,"std":…} (riobench -repeat N);
// the gate compares the mean.
type report struct {
	Schema  int                    `json:"schema"`
	Metrics map[string]metricValue `json:"metrics"`
}

// metricValue accepts both riobench metric encodings.
type metricValue struct {
	Value float64
}

func (m *metricValue) UnmarshalJSON(buf []byte) error {
	var v float64
	if err := json.Unmarshal(buf, &v); err == nil {
		m.Value = v
		return nil
	}
	var agg struct {
		Mean float64 `json:"mean"`
	}
	if err := json.Unmarshal(buf, &agg); err != nil {
		return fmt.Errorf("metric value is neither a number nor {mean,std}: %s", buf)
	}
	m.Value = agg.Mean
	return nil
}

// gate is one metric the CI perf gate enforces. absMax > 0 switches the
// gate to absolute mode: the fresh value must stay at or below absMax
// regardless of the baseline (for metrics whose budget is a contract,
// not a trajectory — e.g. tracing overhead must stay ≤2% even if a
// baseline regression had already eaten part of the budget).
type gate struct {
	key          string
	higherBetter bool
	absMax       float64
}

// gates are the metrics ISSUE acceptance tracks PR-over-PR: throughput at
// the top of the sweep, tail latency, the completion-path coalescing
// headline (capsules per op must
// not creep back toward one-per-command), the replication headlines
// — 3-way throughput at fixed hardware and the worst failover blip when
// a replica member is power-cut mid-measurement — the serve
// (application-tier) headlines: aggregate KV throughput, tail latency,
// and the per-tenant fairness spread, which must stay near 1.0 (one
// tenant's ordering domain starving another's is a regression even when
// aggregate throughput holds) — and the read-path headlines: block-cache
// hit rate, read-heavy throughput and tail latency at the largest cache,
// which must keep beating the feature-off baseline PR over PR — and the
// open-loop saturation headlines: the knee of the latency-vs-offered-load
// curve must not move left (knee_kiops), and the adaptive batching
// governor must keep matching static-low's tail latency at low offered
// load (adaptive_p99low_us) while sustaining static-high's throughput at
// the knee (adaptive_kiops_knee).
var gates = []gate{
	{"scale.rio.kiops.s8", true, 0},
	{"scale.rio.p99_us", false, 0},
	{"scale.rio.completion_msgs_per_op", false, 0},
	{"replication.rio.kiops.r3", true, 0},
	{"replication.rio.failover_blip_us", false, 0},
	// Commit-aware holds on 3-way majority sets: a member's CQE behind an
	// older unresponded command of its domain waits for that command's
	// response capsule, so direct fan-out sends ~1.9 capsules per op
	// instead of ~2.4; a change that drops majority holds fails here.
	{"replication.rio.completion_msgs_per_op.r3", false, 0},
	// Relay fast path (CPU-constrained initiator): throughput must hold
	// its win over direct fan-out, initiator egress must stay collapsed
	// (~1 capsule per batch instead of R), completion capsules per op must
	// stay under the 1.5 absolute budget the ack aggregation bought
	// (direct r3 runs ~2.5), and losing the relay HEAD mid-measurement
	// must stay as survivable as losing a direct-path member.
	{"replication.rio.kiops.r3.relay", true, 0},
	{"replication.rio.tx_msgs_per_op.r3.relay", false, 0},
	{"replication.rio.completion_msgs_per_op.r3.relay", false, 1.5},
	// Follower-to-head ack capsules per op must stay coalesced: one
	// message per relayed completion (~2 per op at r3) is the regression.
	{"replication.rio.relay_ack_msgs_per_op.r3.relay", false, 0},
	{"replication.rio.failover_blip_us.relay", false, 0},
	{"replication.rio.resync_divergence.relay", false, 0},
	{"serve.rio.kiops", true, 0},
	{"serve.rio.p99_us", false, 0},
	{"serve.rio.fairness_spread", false, 0},
	{"read.rio.hit_rate", true, 0},
	{"read.rio.kiops", true, 0},
	{"read.rio.p99_us", false, 0},
	// Read-ahead must observably fire: reported at the mid-size cache
	// point where the scan outruns residency (a zero here means the
	// prefetcher is dead again, whatever the hit rate says).
	{"read.rio.readahead_hits", true, 0},
	{"satload.rio.knee_kiops", true, 0},
	{"satload.rio.adaptive_p99low_us", false, 0},
	{"satload.rio.adaptive_kiops_knee", true, 0},
	// Target CPU efficiency (Fig. 10b): the paper's CPU claim. x12 is the
	// cell a slower PMR persist (PMRWriteLat doubled) moves most, -11.6%
	// over seeds 1-4.
	{"fig10b.target_cpu_efficiency_normalized_to_orderless.rio.x12", true, 0},
	// Tracing must stay free: the stage tracer records host memory only,
	// so a traced run's event schedule is identical to an untraced one
	// and the measured overhead is 0 by construction. The 2-point
	// absolute budget exists so any future change that lets tracing
	// perturb the simulation (a sleep, an RNG draw, an event) fails CI.
	{"trace.rio.overhead_pct", false, 2.0},
}

// check compares one gated metric. For higher-is-better metrics a
// regression is fresh < base*(1-threshold); for lower-is-better,
// fresh > base*(1+threshold). A lower-is-better baseline of zero (e.g.
// no block diverging after a resync) tolerates up to `threshold` absolute
// before failing, since a relative bound on zero is meaningless. A
// higher-is-better baseline at or below zero is an unusable baseline
// (e.g. a zeroed-out report committed by mistake): every fresh value
// would pass a ≥0 bound, so the gate fails loudly instead of silently
// approving anything.
func check(g gate, base, fresh, threshold float64) (ok bool, detail string) {
	var limit float64
	switch {
	case g.absMax > 0:
		ok = fresh <= g.absMax
		detail = fmt.Sprintf("%-32s base %12.3f  new %12.3f  (max %12.3f abs budget)", g.key, base, fresh, g.absMax)
	case g.higherBetter && base <= 0:
		ok = false
		detail = fmt.Sprintf("%-32s base %12.3f unusable (non-positive baseline for a higher-is-better gate)", g.key, base)
	case g.higherBetter:
		limit = base * (1 - threshold)
		ok = fresh >= limit
		detail = fmt.Sprintf("%-32s base %12.3f  new %12.3f  (min %12.3f)", g.key, base, fresh, limit)
	case base == 0:
		limit = threshold
		ok = fresh <= limit
		detail = fmt.Sprintf("%-32s base %12.3f  new %12.3f  (max %12.3f abs)", g.key, base, fresh, limit)
	default:
		limit = base * (1 + threshold)
		ok = fresh <= limit
		detail = fmt.Sprintf("%-32s base %12.3f  new %12.3f  (max %12.3f)", g.key, base, fresh, limit)
	}
	return ok, detail
}

// compare runs every gate and returns the failures (empty = gate passes).
// A gated metric missing from either report is a failure: the gate must
// never silently pass because a key was renamed or an experiment dropped.
// The one exception is introduced: when fresh is a committed baseline and
// base its predecessor, a gated key only the baseline has is a metric that
// baseline introduces — it has nothing to regress from yet, and from then
// on it is held like any other (a key the baseline dropped still fails).
func compare(base, fresh map[string]float64, threshold float64, introduced bool) (lines []string, failures []string) {
	for _, g := range gates {
		b, bok := base[g.key]
		f, fok := fresh[g.key]
		if introduced && !bok && fok {
			lines = append(lines, fmt.Sprintf("new  %-32s base            -  new %12.3f  (introduced: gated from this baseline on)", g.key, f))
			continue
		}
		if !bok || !fok {
			failures = append(failures, fmt.Sprintf(
				"%s: gated metric missing from %s report — a renamed key or a dropped experiment must fail the gate, never skip it",
				g.key, missingSide(bok, fok)))
			continue
		}
		ok, detail := check(g, b, f, threshold)
		status := "ok  "
		if !ok {
			status = "FAIL"
			failures = append(failures, detail)
		}
		lines = append(lines, status+" "+detail)
	}
	return lines, failures
}

func missingSide(bok, fok bool) string {
	switch {
	case !bok && !fok:
		return "both"
	case !bok:
		return "baseline"
	default:
		return "new"
	}
}

// moved returns, sorted, every key whose value differs between base and fresh
// or that one side lacks, each as "key base → new" ("-" for a missing side):
// what a failing byte comparison of the two files will find.
func moved(base, fresh map[string]float64) []string {
	side := func(v float64, ok bool) string {
		if !ok {
			return "-"
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	all := maps.Clone(base)
	maps.Copy(all, fresh)
	var diff []string
	for _, k := range slices.Sorted(maps.Keys(all)) {
		b, bok := base[k]
		f, fok := fresh[k]
		if bok != fok || b != f {
			diff = append(diff, fmt.Sprintf("%s %s → %s", k, side(b, bok), side(f, fok)))
		}
	}
	return diff
}

// seedsFile returns the seeds file beside a BENCH_<N>.json, if it exists.
func seedsFile(baseline string) (string, bool) {
	path := strings.TrimSuffix(baseline, ".json") + ".seeds.json"
	_, err := os.Stat(path)
	return path, err == nil
}

// predecessor returns the highest-numbered BENCH_<M>.json beside baseline
// with M below the baseline's own number ("" when it is the first).
func predecessor(baseline string) (string, error) {
	re := regexp.MustCompile(`^BENCH_(\d+)\.json$`)
	sub := re.FindStringSubmatch(filepath.Base(baseline))
	if sub == nil {
		return "", fmt.Errorf("benchdiff: baseline %s is not named BENCH_<N>.json", baseline)
	}
	n, _ := strconv.Atoi(sub[1])
	matches, err := filepath.Glob(filepath.Join(filepath.Dir(baseline), "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, m := range matches {
		if sub := re.FindStringSubmatch(filepath.Base(m)); sub != nil {
			if k, _ := strconv.Atoi(sub[1]); k < n && k > bestN {
				best, bestN = m, k
			}
		}
	}
	return best, nil
}

func load(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Metrics) == 0 {
		return nil, fmt.Errorf("%s: no metrics", path)
	}
	return &r, nil
}

// values flattens a parsed metric map to the comparable numbers (plain
// value or repeat mean).
func values(ms map[string]metricValue) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for k, v := range ms {
		out[k] = v.Value
	}
	return out
}

// runGate runs both comparisons and returns the process exit code.
func runGate(baselinePath, newPath string, threshold float64, out io.Writer) int {
	pairs := [][2]string{{baselinePath, newPath}}
	prev, err := predecessor(baselinePath)
	if err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	if prev != "" {
		pairs = [][2]string{{prev, baselinePath}, {baselinePath, newPath}}
		ps, pok := seedsFile(prev)
		bs, bok := seedsFile(baselinePath)
		if pok && bok {
			pairs[0] = [2]string{ps, bs}
		}
	}
	failed := 0
	for i, pair := range pairs {
		base, err := load(pair[0])
		if err != nil {
			fmt.Fprintln(out, "benchdiff:", err)
			return 2
		}
		fresh, err := load(pair[1])
		if err != nil {
			fmt.Fprintln(out, "benchdiff:", err)
			return 2
		}
		fmt.Fprintf(out, "benchdiff: %s vs %s (threshold %.0f%%)\n", pair[1], pair[0], 100*threshold)
		b, f := values(base.Metrics), values(fresh.Metrics)
		lines, failures := compare(b, f, threshold, i == 0 && prev != "")
		for _, l := range lines {
			fmt.Fprintln(out, l)
		}
		diff := moved(b, f)
		fmt.Fprintf(out, "benchdiff: %d key(s) differ or are missing on one side (at most 20 named)\n", len(diff))
		for _, d := range diff[:min(20, len(diff))] {
			fmt.Fprintln(out, "  moved "+d)
		}
		for _, f := range failures {
			fmt.Fprintln(out, "  REGRESSED "+f)
		}
		failed += len(failures)
	}
	if failed > 0 {
		fmt.Fprintf(out, "benchdiff: %d gated metric(s) regressed >%.0f%%\n", failed, 100*threshold)
		return 1
	}
	fmt.Fprintln(out, "benchdiff: perf gate passed")
	return 0
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "the committed BENCH_<N>.json (the Makefile's BASELINE)")
		newPath      = flag.String("new", "", "fresh riobench -json report to gate")
		threshold    = flag.Float64("threshold", 0.10, "allowed relative regression per gated metric")
	)
	flag.Parse()
	if *newPath == "" || *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -new required")
		os.Exit(2)
	}
	os.Exit(runGate(*baselinePath, *newPath, *threshold, os.Stdout))
}
