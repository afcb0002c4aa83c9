// Policy experiment: the ordering-engine probe. All four storage stacks
// (orderless, Linux-ordered, Horae, Rio) now drive the ONE engine in
// internal/order through their policies — there is no per-stack gate or
// chain implementation left — so this sweep runs the same workload on
// the same topology through each policy and reports the ordering tax per
// stack alongside the engine's hot-path counters: in-order holdbacks per
// thousand commands, PMR appends per command, and the dense-chain audit
// (which must be clean under every policy). It counts no Go allocations:
// TestWritePathAllocBudget in internal/stack gates those per write, the
// target's ordering engine included.
package bench

import (
	"fmt"

	"repro/internal/metrics"
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
// 2-SSD Optane targets, 4 streams) and returns the block result plus the
// finished cluster's orderViolations.
func runPolicyPoint(o Options, sys system) (workload.BlockResult, int) {
	cfg := stack.DefaultConfig(sys.mode, optaneTargets(2, 2)...)
	cfg.Streams = 4
	cfg.QPs = 4
	return audited(o, cfg, drive(workload.RunBlock, workload.BlockJob{
		Threads: 4, Pattern: workload.PatternRandom4K, Ordered: sys.ordered,
	}))
}

// PolicySweep is the "policy" experiment.
func PolicySweep(o Options) *Result {
	res := &Result{Name: "policy: four stacks through the one ordering engine (2 targets, 4 streams, 4 KB random write)"}

	kiops := metrics.Series{Label: "kiops"}
	holdbacks := metrics.Series{Label: "holdbacks/kcmd"}
	appends := metrics.Series{Label: "pmr appends/cmd"}
	auditTotal := 0
	for i, sys := range policySystems {
		r, audit := runPolicyPoint(o, sys)
		auditTotal += audit
		// A stack that sent no command has no engine traffic to divide.
		cmds := max(float64(r.TgtStats.Commands), 1)
		kiops.Add(float64(i), r.KIOPS())
		holdbacks.Add(float64(i), float64(r.TgtStats.Holdbacks)/cmds*1e3)
		appends.Add(float64(i), float64(r.TgtStats.PMRAppends)/cmds)
		res.Metric(fmt.Sprintf("policy.%s.kiops", sys.label), r.KIOPS())
	}
	rio := len(policySystems) - 1 // the last stack
	res.Metric("policy.rio.pmr_appends_per_cmd", appends.Y[rio])
	res.Metric("policy.rio.holdbacks_per_kcmd", holdbacks.Y[rio])
	res.Metric("policy.order_violations", float64(auditTotal))

	res.Tables = append(res.Tables, Table{Title: "throughput and engine counters per stack", XName: "stack",
		Rows: labels(policySystems), Series: []metrics.Series{kiops, holdbacks, appends}})
	res.Notes = append(res.Notes,
		fmt.Sprintf("engine dense-chain audit across all four policies: %d violations (must be 0)", auditTotal),
		"orderless and linux policies keep no engine state (no gate, no PMR traffic): their rows pin the engine's zero-cost baseline")
	return res
}
