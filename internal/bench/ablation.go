package bench

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
	"repro/internal/workload"
)

// Ablations measures the design choices DESIGN.md calls out, beyond the
// rio-w/o-merge line already present in Figs. 10/12:
//
//  1. Stream→QP affinity (Principle 2, §4.5): with affinity the RC
//     transport delivers each queue pair's commands in post order, so at
//     this one-target point the target's in-order submission gate never
//     parks; without it the gate must hold back reordered arrivals. (A
//     stream that spans two targets parks even with affinity: two of its
//     dispatches can post toward one target in the reverse of their mint
//     order.)
//  2. PMR write latency sensitivity: the ordering-attribute append is on
//     the target's submission path; this sweep shows how far the PMR
//     persistence latency can grow before it costs throughput.
func Ablations(o Options) *Result {
	res := &Result{Name: "Ablations: stream affinity (Principle 2) and PMR latency"}
	job := random4K(8)
	job.Ordered = true

	// 1. Stream→QP affinity.
	aff, holdbacks := metrics.Series{Label: "KIOPS"}, metrics.Series{Label: "holdbacks"}
	for i, affinity := range []bool{true, false} {
		cfg := stack.DefaultConfig(stack.ModeRio, stack.OptaneTarget())
		cfg.StreamAffinity = affinity
		var hb int64
		r := point(o, cfg, func(eng *sim.Engine, c *stack.Cluster, warm, meas sim.Time) workload.BlockResult {
			r := workload.RunBlock(eng, c, job, warm, meas)
			hb = c.Target(0).Stats().Holdbacks
			return r
		})
		aff.Add(float64(i), r.KIOPS())
		holdbacks.Add(float64(i), float64(hb))
	}
	res.plot(
		"stream→QP affinity (x=0: on, x=1: off); 8 threads, Optane",
		"affinity-off", aff, holdbacks)

	// 2. PMR persistence latency sweep.
	pmr := sweep([]string{"KIOPS"}, []int{300, 600, 1200, 2400, 4800}, func(_, lat int) workload.BlockResult {
		sc := ssd.OptaneConfig()
		sc.PMRWriteLat = sim.Time(lat)
		return blockPoint(o, stack.DefaultConfig(stack.ModeRio, stack.TargetConfig{SSDs: []ssd.Config{sc}}), job)
	}, func(r workload.BlockResult) float64 { return r.KIOPS() })[0][0]
	res.plot(
		"PMR persistence latency sweep (8 threads, Optane)", "pmr-ns", pmr)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"affinity off: %.0f holdbacks (gate parks reordered arrivals; throughput held by the gate, not the app)",
		holdbacks.Y[1]))
	return res
}
