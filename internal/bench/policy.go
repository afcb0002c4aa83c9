// Policy experiment: the ordering-engine probe. All four storage stacks
// (orderless, Linux-ordered, Horae, Rio) now drive the ONE engine in
// internal/order through their policies — there is no per-stack gate or
// chain implementation left — so this sweep runs the same workload on
// the same topology through each policy and reports the ordering tax per
// stack alongside the engine's hot-path counters: target-side
// allocations per processed command (the dense-table/free-list headline
// the CI perf gate tracks), in-order holdbacks, PMR append/toggle
// traffic, and the dense-chain audit (which must be clean under every
// policy).
package bench

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// policySystems are the four stacks, each instantiating one engine
// policy (stack.Mode.Policy()).
var policySystems = []system{
	{"orderless", stack.ModeOrderless, false, false},
	{"linux", stack.ModeLinux, true, false},
	{"horae", stack.ModeHorae, true, false},
	{"rio", stack.ModeRio, true, false},
}

// runPolicyPoint measures one stack on the fixed policy topology (two
// 2-SSD Optane targets, 4 streams) and returns the block result plus
// the cluster for post-run audit.
func runPolicyPoint(o Options, sys system) (workload.BlockResult, int) {
	eng := sim.New(o.seed())
	cfg := stack.DefaultConfig(sys.mode, scaleTargets(2)...)
	cfg.Streams = 4
	cfg.QPs = 4
	c := o.newCluster(eng, cfg)
	warm, meas := o.windows()
	r := workload.RunBlock(eng, c, workload.BlockJob{
		Threads: 4, Pattern: workload.PatternRandom4K, Ordered: sys.ordered,
	}, warm, meas)
	audit := orderViolations(c)
	eng.Shutdown()
	return r, audit
}

// PolicySweep is the "policy" experiment.
func PolicySweep(o Options) *Result {
	res := &Result{Name: "policy: four stacks through the one ordering engine (2 targets, 4 streams, 4 KB random write)"}

	var kiops, holdbacks, appends metrics.Series
	kiops.Label = "kiops"
	holdbacks.Label = "holdbacks/kcmd"
	appends.Label = "pmr appends/cmd"
	auditTotal := 0
	for i, sys := range policySystems {
		r, audit := runPolicyPoint(o, sys)
		auditTotal += audit
		x := float64(i)
		kiops.Add(x, r.KIOPS())
		cmds := float64(r.TgtStats.Commands)
		if cmds > 0 {
			holdbacks.Add(x, float64(r.TgtStats.Holdbacks)/cmds*1e3)
			appends.Add(x, float64(r.TgtStats.PMRAppends)/cmds)
		} else {
			holdbacks.Add(x, 0)
			appends.Add(x, 0)
		}
		res.Metric(fmt.Sprintf("policy.%s.kiops", sys.label), r.KIOPS())
		if sys.label == "rio" {
			res.Metric("policy.rio.pmr_appends_per_cmd", appends.Y[len(appends.Y)-1])
			res.Metric("policy.rio.holdbacks_per_kcmd", holdbacks.Y[len(holdbacks.Y)-1])
		}
	}
	res.Metric("policy.order_violations", float64(auditTotal))

	// Render with the mode name as the x label (the series share indices).
	var rows []string
	rows = append(rows, fmt.Sprintf("%-12s%12s%18s%18s",
		"stack", "kiops", "holdbacks/kcmd", "pmr appends/cmd"))
	for i, sys := range policySystems {
		rows = append(rows, fmt.Sprintf("%-12s%12.1f%18.3f%18.3f",
			sys.label, kiops.Y[i], holdbacks.Y[i], appends.Y[i]))
	}
	res.Tables = append(res.Tables, fmt.Sprintf("%s\n", joinRows(rows)))
	res.Notes = append(res.Notes,
		fmt.Sprintf("engine dense-chain audit across all four policies: %d violations (must be 0)", auditTotal),
		"orderless and linux policies keep no engine state (no gate, no PMR traffic): their rows pin the engine's zero-cost baseline")
	return res
}

func joinRows(rows []string) string {
	out := ""
	for i, r := range rows {
		if i > 0 {
			out += "\n"
		}
		out += r
	}
	return out
}
