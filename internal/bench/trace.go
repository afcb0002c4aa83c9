// Trace experiment and the -trace plumbing for every other experiment.
//
// Stage-level tracing (internal/trace) records host-memory timestamps
// only: it never sleeps, never schedules events, and allocates nothing on
// the untraced path, so a traced run of the deterministic simulator is
// event-identical to an untraced one. The "trace" experiment turns that
// claim into a gated metric — trace.rio.overhead_pct compares simulated
// throughput with tracing off and on and must stay ≤2% (it is exactly 0
// by construction) — and publishes the latency decompositions the other
// gates can't see: the p99 stage budget of the scale and satload
// headline points (whose stage sums must land within 10% of the measured
// e2e p99) and the satload governor's CQE-hold attribution at low load
// versus the knee.
package bench

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceKeep sizes the retained-span ring when -trace is on: large enough
// that a quick sweep's p99 cohort never falls off the ring.
const traceKeep = 16384

// newCluster builds a cluster for an experiment point, applying the
// run's trace sampling (off by default: the config, and therefore every
// seeded metric, is untouched when TraceSample is 0); Run gathers its
// tracer, which outlives the engine, once the experiment returns.
func (o Options) newCluster(eng *sim.Engine, cfg stack.Config) *stack.Cluster {
	if o.TraceSample > 0 {
		cfg.Trace = trace.Config{SampleEvery: o.TraceSample, Keep: traceKeep}
	}
	c := stack.New(eng, cfg)
	if tr := c.Tracer(); tr != nil && o.traces != nil {
		*o.traces = append(*o.traces, tr)
	}
	return c
}

// traced returns o tracing at 1-in-sample (0 = off), its clusters'
// tracers collected into *trs instead of the run's stage table.
func (o Options) traced(sample int, trs *[]*trace.Tracer) Options {
	o.TraceSample, o.traces = sample, trs
	return o
}

// tracedScalePoint is the scale experiment's headline point (rio, 8
// streams, the sweep's largest target count) traced at the given sample
// rate (0 = off, and no tracer), returning the tracer for budget analysis.
func tracedScalePoint(o Options, sample int) (workload.BlockResult, *trace.Tracer) {
	targets := 4
	if o.Quick {
		targets = 2
	}
	var trs []*trace.Tracer
	r := runScalePoint(o.traced(sample, &trs), scaleSystems[0], 8, targets)
	if len(trs) == 0 {
		return r, nil
	}
	return r, trs[0]
}

// tracedSatPoint is the satload experiment's adaptive-governor point at
// one offered load, traced at the given sample rate.
func tracedSatPoint(o Options, offered float64, sample int) (workload.SatResult, *trace.Tracer) {
	var trs []*trace.Tracer
	r, _ := runSatPoint(o.traced(sample, &trs), satVariants[2], offered, workload.ArrivalPoisson, false)
	return r, trs[0]
}

// budgetTable is a p99 stage budget as a table: the cohort's mean per
// stage, their sum, and the p99 the cohort sits around.
func budgetTable(title string, b trace.Budget) Table {
	t := Table{Title: title, XName: "stage", Series: []metrics.Series{{Label: "mean(us)"}}}
	for i, d := range append(b.Stages[:], b.Sum(), b.P99) {
		t.Series[0].Add(float64(i), float64(d)/1e3)
		if i < trace.NumStages {
			t.Rows = append(t.Rows, trace.StageName(i))
		}
	}
	t.Rows = append(t.Rows, "sum", "p99")
	return t
}

// traceSample is the sampling rate the trace experiment runs at: sparse
// enough to honor the "near-zero overhead" framing, dense enough that
// the quick windows still retain a p99 cohort.
const traceSample = 16

// TraceSweep is the "trace" experiment.
func TraceSweep(o Options) *Result {
	res := &Result{Name: "trace: stage-level latency decomposition and tracing overhead"}

	// Overhead: the scale headline point with tracing off, then on, same
	// seed. The simulator is deterministic and tracing records host
	// memory only, so the traced event schedule — and the throughput —
	// must be identical: overhead_pct is gated ≤2 and expected to be 0.
	base, _ := tracedScalePoint(o, 0)
	traced, scaleTr := tracedScalePoint(o, traceSample)
	overheadPct := 0.0
	if base.KIOPS() > 0 {
		overheadPct = 100 * (base.KIOPS() - traced.KIOPS()) / base.KIOPS()
	}
	res.Metric("trace.rio.overhead_pct", overheadPct)
	res.Metric("trace.rio.kiops_untraced", base.KIOPS())
	res.Metric("trace.rio.kiops_traced", traced.KIOPS())

	scaleStats := scaleTr.Stats()
	// The stage breakdowns stay text: riotrace prints the same renderer,
	// and the trace.rio.* metrics already carry the numbers a gate reads.
	res.Tables = append(res.Tables, Table{Text: scaleStats.Table(fmt.Sprintf(
		"scale headline point, 1-in-%d sampled", traceSample))})

	// p99 budget: the cohort's stage means must sum to the measured e2e
	// p99 within 10% (gated) — the decomposition accounts for the tail.
	scaleBudget := trace.BudgetP99(scaleTr.Retained())
	res.Metric("trace.rio.budget_p99_ratio_scale", scaleBudget.Ratio())
	res.Tables = append(res.Tables, budgetTable("scale p99 stage budget", scaleBudget))

	// Satload attribution: the adaptive governor runs latency-biased
	// (1 µs CQE hold) at low load and throughput-biased (8 µs) at the
	// knee. The per-op cqehold wait must show that switch: the knee/low
	// ratio is the governor's fingerprint in the latency decomposition.
	lowRes, lowTr := tracedSatPoint(o, 400, traceSample)
	kneeRes, kneeTr := tracedSatPoint(o, 1200, traceSample)
	lowStats, kneeStats := lowTr.Stats(), kneeTr.Stats()
	lowHold := lowStats.WaitMeanPerOp(trace.WaitCQE)
	kneeHold := kneeStats.WaitMeanPerOp(trace.WaitCQE)
	res.Metric("trace.rio.cqe_hold_us_low", lowHold/1e3)
	res.Metric("trace.rio.cqe_hold_us_knee", kneeHold/1e3)
	if lowHold > 0 {
		res.Metric("trace.rio.cqe_hold_ratio_knee_over_low", kneeHold/lowHold)
	}
	res.Tables = append(res.Tables,
		Table{Text: lowStats.Table(fmt.Sprintf("satload adaptive @400 offered kiops (delivered %.1f), 1-in-%d sampled",
			lowRes.DeliveredKIOPS(), traceSample))},
		Table{Text: kneeStats.Table(fmt.Sprintf("satload adaptive @1200 offered kiops (delivered %.1f), 1-in-%d sampled",
			kneeRes.DeliveredKIOPS(), traceSample))})

	kneeBudget := trace.BudgetP99(kneeTr.Retained())
	res.Metric("trace.rio.budget_p99_ratio_satload", kneeBudget.Ratio())
	res.Tables = append(res.Tables, budgetTable("satload knee p99 stage budget", kneeBudget))

	res.Notes = append(res.Notes,
		fmt.Sprintf("tracing overhead: %.3f%% (untraced %.1f kiops vs traced %.1f; 0 by construction — tracing records host memory only)",
			overheadPct, base.KIOPS(), traced.KIOPS()),
		fmt.Sprintf("p99 stage budgets account for %.1f%% (scale, cohort of %d spans) and %.1f%% (satload knee, cohort of %d) of the measured e2e p99",
			100*scaleBudget.Ratio(), scaleBudget.N, 100*kneeBudget.Ratio(), kneeBudget.N),
		fmt.Sprintf("governor attribution: cqehold %.2f µs/op at 400 offered kiops vs %.2f µs/op at the 1200 knee",
			lowHold/1e3, kneeHold/1e3))
	return res
}
