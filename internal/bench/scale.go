// Scale experiment: not a paper figure but this repo's production-scaling
// probe. It sweeps streams × target servers over the sharded multi-queue
// dispatch path and reports, per system, throughput scaling plus the
// hot-path efficiency counters the shard refactor and the vectored
// completion path are about: allocations per request (against the seed
// dispatch's recorded figure), shard pool hit rate, doorbell batch
// occupancy, and on the reverse path CQE batch occupancy and completion
// messages per op. A third
// axis sweeps initiators × fixed targets: aggregate Rio throughput must
// scale with initiator count while every initiator's ordering domain
// keeps its invariants (sequencer group order, dense ServerIdx chains /
// zero holdbacks under affinity, advancing PMR retire watermarks).
package bench

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
	"repro/internal/workload"
)

// scaleTargets builds n two-SSD Optane target servers.
func scaleTargets(n int) []stack.TargetConfig {
	out := make([]stack.TargetConfig, n)
	for i := range out {
		out[i] = stack.TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig(), ssd.OptaneConfig()}}
	}
	return out
}

// scaleSystem is one line of the scale sweep.
type scaleSystem struct {
	label   string
	mode    stack.Mode
	ordered bool
}

var scaleSystems = []scaleSystem{
	{"rio", stack.ModeRio, true},
	{"horae", stack.ModeHorae, true},
	{"orderless", stack.ModeOrderless, false},
}

// runScalePoint measures one (system, streams, targets) point. Streams,
// threads and queue pairs scale together so each added thread brings its
// own submission shard and QP.
func runScalePoint(o Options, sys scaleSystem, streams, targets int) workload.BlockResult {
	eng := sim.New(o.seed())
	cfg := stack.DefaultConfig(sys.mode, scaleTargets(targets)...)
	cfg.Streams = streams
	cfg.QPs = streams
	c := o.newCluster(eng, cfg)
	warm, meas := o.windows()
	r := workload.RunBlock(eng, c, workload.BlockJob{
		Threads: streams, Pattern: workload.PatternRandom4K, Ordered: sys.ordered,
	}, warm, meas)
	eng.Shutdown()
	return r
}

// runInitiatorPoint measures one (initiators, streams-per-initiator,
// targets) Rio point and verifies the per-initiator ordering invariants
// on the finished cluster, returning the violation count.
func runInitiatorPoint(o Options, inits, streams, targets int) (workload.BlockResult, int) {
	eng := sim.New(o.seed())
	cfg := stack.DefaultConfig(stack.ModeRio, scaleTargets(targets)...)
	cfg.Initiators = inits
	cfg.Streams = streams
	cfg.QPs = streams
	c := o.newCluster(eng, cfg)
	warm, meas := o.windows()
	r := workload.RunBlock(eng, c, workload.BlockJob{
		Threads: streams, Initiators: inits,
		Pattern: workload.PatternRandom4K, Ordered: true,
	}, warm, meas)
	v := orderViolations(c)
	eng.Shutdown()
	return r, v
}

// ScaleSweep is the "scale" experiment.
func ScaleSweep(o Options) *Result {
	res := &Result{Name: "scale: sharded dispatch — streams × targets sweep (4 KB random ordered write)"}
	streams := []int{1, 2, 4, 8}
	targetCounts := []int{1, 2, 4}
	if o.Quick {
		targetCounts = []int{1, 2}
	}
	maxT := targetCounts[len(targetCounts)-1]
	maxS := streams[len(streams)-1]

	for _, tc := range targetCounts {
		var tput []metrics.Series
		var rioPts []workload.BlockResult
		for _, sys := range scaleSystems {
			s := metrics.Series{Label: sys.label}
			for _, st := range streams {
				r := runScalePoint(o, sys, st, tc)
				s.Add(float64(st), r.KIOPS())
				if sys.label == "rio" {
					rioPts = append(rioPts, r)
				}
			}
			tput = append(tput, s)
		}
		res.Tables = append(res.Tables, metrics.Table(
			fmt.Sprintf("throughput (K ops/s), %d target server(s)", tc), "streams", tput...))

		// Hot-path counters for the Rio shards at this topology.
		var hit, occ metrics.Series
		hit.Label, occ.Label = "pool hit rate", "batch occupancy"
		for i, st := range streams {
			hit.Add(float64(st), rioPts[i].Stats.Pool.HitRate())
			occ.Add(float64(st), rioPts[i].Stats.Batch.Occupancy())
		}
		res.Tables = append(res.Tables, metrics.Table(
			fmt.Sprintf("rio hot path, %d target server(s)", tc), "streams",
			hit, occ))

		// Completion-path counters: CQE coalescing.
		var cqeOcc, cplOp metrics.Series
		cqeOcc.Label, cplOp.Label = "cqe occupancy", "cpl msgs/op rio"
		for i, st := range streams {
			cqeOcc.Add(float64(st), rioPts[i].Stats.CplBatch.Occupancy())
			cplOp.Add(float64(st), rioPts[i].Stats.CompletionMsgsPerOp())
		}
		res.Tables = append(res.Tables, metrics.Table(
			fmt.Sprintf("rio completion path, %d target server(s)", tc), "streams",
			cqeOcc, cplOp))

		rio := seriesByLabel(tput, "rio")
		mono := true
		for i := 1; i < len(rio.Y); i++ {
			if rio.Y[i] <= rio.Y[i-1] {
				mono = false
			}
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%d target(s): rio scaling 1→%d streams = %.2fx (monotonic: %v)",
			tc, maxS, rio.Y[len(rio.Y)-1]/rio.Y[0], mono))

		if tc == maxT {
			last := len(streams) - 1
			r := rioPts[last]
			res.Metric("scale.rio.ops_per_sec", r.KIOPS()*1e3)
			res.Metric("scale.rio.p99_us", float64(r.Lat.P99())/1000)
			res.Metric("scale.rio.init_cpu_util", r.InitUtil)
			res.Metric("scale.rio.batch_occupancy", r.Stats.Batch.Occupancy())
			res.Metric("scale.rio.cqe_batch_occupancy", r.Stats.CplBatch.Occupancy())
			res.Metric("scale.rio.completion_msgs_per_op", r.Stats.CompletionMsgsPerOp())
			if r.Stats.Completed > 0 {
				res.Metric("scale.rio.reap_cpu_per_op_ns",
					float64(r.Stats.ReapCPU)/float64(r.Stats.Completed))
			}
			for i, st := range streams {
				res.Metric(fmt.Sprintf("scale.rio.kiops.s%d", st), rio.Y[i])
			}
		}
	}
	// Initiator axis: aggregate Rio throughput over 1→4 initiator servers
	// sharing a FIXED target fleet, streams (and QPs per connection) held
	// constant per initiator. Every point also audits the per-initiator
	// ordering invariants; violations gate the build via TestScaleSweep.
	initCounts := []int{1, 2, 4}
	const initTargets = 2
	const initStreams = 4
	var initLine metrics.Series
	initLine.Label = "rio aggregate"
	violations := 0
	for _, ni := range initCounts {
		r, v := runInitiatorPoint(o, ni, initStreams, initTargets)
		violations += v
		initLine.Add(float64(ni), r.KIOPS())
		res.Metric(fmt.Sprintf("scale.rio.kiops.i%d", ni), r.KIOPS())
	}
	res.Tables = append(res.Tables, metrics.Table(
		fmt.Sprintf("initiator scaling (4 KB random ordered write, %d streams/initiator, %d target servers)",
			initStreams, initTargets), "initiators", initLine))
	monoInit := true
	for i := 1; i < len(initLine.Y); i++ {
		if initLine.Y[i] <= initLine.Y[i-1] {
			monoInit = false
		}
	}
	last := len(initCounts) - 1
	res.Metric("scale.rio.init_scaling", initLine.Y[last]/initLine.Y[0])
	res.Metric("scale.multi.order_violations", float64(violations))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"initiator axis: rio aggregate scaling 1→%d initiators = %.2fx (monotonic: %v), per-initiator ordering violations: %d",
		initCounts[last], initLine.Y[last]/initLine.Y[0], monoInit, violations))

	res.Notes = append(res.Notes,
		"cpl msgs/op counts completion capsules per completed request; the seed target shipped exactly one bare 16-byte CQE capsule per command")
	return res
}
