// Scale experiment: not a paper figure but this repo's production-scaling
// probe. It sweeps streams × target servers over the sharded multi-queue
// dispatch path and reports, per system, throughput scaling plus the
// hot-path efficiency counters the shard refactor and the vectored
// completion path are about: shard pool hit rate, doorbell batch
// occupancy, and on the reverse path CQE batch occupancy and completion
// messages per op. It counts no Go allocations: TestWritePathAllocBudget
// in internal/stack gates those per write. A third
// axis sweeps initiators × fixed targets: aggregate Rio throughput must
// scale with initiator count while every initiator's ordering domain
// keeps its invariants (sequencer group order, dense ServerIdx chains /
// zero holdbacks under affinity, advancing PMR retire watermarks).
package bench

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/stack"
	"repro/internal/workload"
)

// scaleSystems are the lines of the scale sweep, rio first.
var scaleSystems = []system{
	{"rio", stack.ModeRio, true, false},
	{"horae", stack.ModeHorae, true, false},
	{"orderless", stack.ModeOrderless, false, false},
}

// runScalePoint measures one (system, streams, targets) point. Streams,
// threads and queue pairs scale together so each added thread brings its
// own submission shard and QP.
func runScalePoint(o Options, sys system, streams, targets int) workload.BlockResult {
	cfg := stack.DefaultConfig(sys.mode, optaneTargets(targets, 2)...)
	cfg.Streams = streams
	cfg.QPs = streams
	return blockPoint(o, cfg, workload.BlockJob{
		Threads: streams, Pattern: workload.PatternRandom4K, Ordered: sys.ordered,
	})
}

// runInitiatorPoint measures one (initiators, streams-per-initiator,
// targets) Rio point and verifies the per-initiator ordering invariants
// on the finished cluster, returning the violation count.
func runInitiatorPoint(o Options, inits, streams, targets int) (workload.BlockResult, int) {
	cfg := stack.DefaultConfig(stack.ModeRio, optaneTargets(targets, 2)...)
	cfg.Initiators = inits
	cfg.Streams = streams
	cfg.QPs = streams
	return audited(o, cfg, drive(workload.RunBlock, workload.BlockJob{
		Threads: streams, Initiators: inits,
		Pattern: workload.PatternRandom4K, Ordered: true,
	}))
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
		var rioPts []workload.BlockResult
		ss := sweep(labels(scaleSystems), streams, func(i, st int) workload.BlockResult {
			r := runScalePoint(o, scaleSystems[i], st, tc)
			if i == 0 {
				rioPts = append(rioPts, r)
			}
			return r
		}, workload.BlockResult.KIOPS,
			func(r workload.BlockResult) float64 { return r.Stats.Pool.HitRate() },
			func(r workload.BlockResult) float64 { return r.Stats.Batch.Occupancy() },
			func(r workload.BlockResult) float64 { return r.Stats.CplBatch.Occupancy() },
			func(r workload.BlockResult) float64 { return r.Stats.CompletionMsgsPerOp() })
		tput := ss[0]
		res.plot(fmt.Sprintf("throughput (K ops/s), %d target server(s)", tc), "streams", tput...)

		// The Rio shards' hot-path counters, then the completion path's
		// CQE coalescing.
		hit, occ, cqeOcc, cplOp := ss[1][0], ss[2][0], ss[3][0], ss[4][0]
		hit.Label, occ.Label, cqeOcc.Label, cplOp.Label = "pool hit rate", "batch occupancy", "cqe occupancy", "cpl msgs/op rio"
		res.plot(fmt.Sprintf("rio hot path, %d target server(s)", tc), "streams", hit, occ)
		res.plot(fmt.Sprintf("rio completion path, %d target server(s)", tc), "streams", cqeOcc, cplOp)

		rio := tput[0]
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%d target(s): rio scaling 1→%d streams = %.2fx (monotonic: %v)",
			tc, maxS, rio.Y[len(rio.Y)-1]/rio.Y[0], rising(rio.Y)))

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
	initLine := metrics.Series{Label: "rio aggregate"}
	violations := 0
	for _, ni := range initCounts {
		r, v := runInitiatorPoint(o, ni, initStreams, initTargets)
		violations += v
		initLine.Add(float64(ni), r.KIOPS())
		res.Metric(fmt.Sprintf("scale.rio.kiops.i%d", ni), r.KIOPS())
	}
	res.plot(
		fmt.Sprintf("initiator scaling (4 KB random ordered write, %d streams/initiator, %d target servers)",
			initStreams, initTargets), "initiators", initLine)
	last := len(initCounts) - 1
	res.Metric("scale.rio.init_scaling", initLine.Y[last]/initLine.Y[0])
	res.Metric("scale.multi.order_violations", float64(violations))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"initiator axis: rio aggregate scaling 1→%d initiators = %.2fx (monotonic: %v), per-initiator ordering violations: %d",
		initCounts[last], initLine.Y[last]/initLine.Y[0], rising(initLine.Y), violations))

	res.Notes = append(res.Notes,
		"cpl msgs/op counts completion capsules per completed request; the seed target shipped exactly one bare 16-byte CQE capsule per command")
	return res
}

// rising reports whether every point of ys is above the one before it.
func rising(ys []float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] <= ys[i-1] {
			return false
		}
	}
	return true
}
