// Replication experiment: the repo's availability probe. A fixed fleet
// of one-SSD Optane targets is regrouped into replica sets as R sweeps
// 1→3 (R=1 is the unreplicated baseline and must reproduce the scale
// experiment's behavior), measuring the redundancy tax on throughput
// and the completion-message amplification of the fan-out. A second
// phase power-cuts one member of a 3-way set mid-measurement: the
// failover blip is the worst request latency of that window, the
// degraded throughput proves no stream stalled, and a background resync
// afterwards must leave the rejoined member byte-identical to a peer.
package bench

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
	"repro/internal/workload"
)

// replTargets builds n one-SSD Optane target servers.
func replTargets(n int) []stack.TargetConfig {
	out := make([]stack.TargetConfig, n)
	for i := range out {
		out[i] = stack.TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig()}}
	}
	return out
}

// replFleet is the fixed hardware budget of the sweep: 6 targets divide
// evenly into sets of 1, 2 and 3.
const replFleet = 6

// runReplicationPoint measures one replica factor on the fixed fleet.
// cutAt > 0 schedules a power cut of target `cutMember` at that
// simulated time (failover phase); the returned cluster lets the caller
// resync and audit afterwards.
func runReplicationPoint(o Options, replicas int, cutAt sim.Time, cutMember int) (workload.BlockResult, *stack.Cluster, *sim.Engine) {
	eng := sim.New(o.seed())
	cfg := stack.DefaultConfig(stack.ModeRio, replTargets(replFleet)...)
	cfg.Replicas = replicas
	cfg.Streams = 4
	cfg.QPs = 4
	c := o.newCluster(eng, cfg)
	warm, meas := o.windows()
	if cutAt > 0 {
		eng.At(cutAt, func() { c.PowerCutTarget(cutMember) })
	}
	r := workload.RunBlock(eng, c, workload.BlockJob{
		Threads: 4, Pattern: workload.PatternRandom4K, Ordered: true,
	}, warm, meas)
	return r, c, eng
}

// relayInitCores is the initiator CPU budget of the relay comparison.
// The default 18-core initiator never saturates on this fleet, so the
// R×→1× egress saving would vanish into idle cores; two cores make the
// submission path the bottleneck — the regime the relay targets (the
// initiator in the paper's asymmetric deployments is the scarce side).
const relayInitCores = 2

// runRelayPoint measures the 3-way fleet with the initiator pinned to
// relayInitCores, with the relay fast path on or off. cutAt > 0
// power-cuts the HEAD of set 0 mid-measurement (the relay hub — the
// most adversarial member to lose).
func runRelayPoint(o Options, relay bool, cutAt sim.Time) (workload.BlockResult, *stack.Cluster, *sim.Engine) {
	eng := sim.New(o.seed())
	cfg := stack.DefaultConfig(stack.ModeRio, replTargets(replFleet)...)
	cfg.Replicas = 3
	cfg.ReplRelay = relay
	cfg.Streams = 4
	cfg.QPs = 4
	cfg.InitiatorCores = relayInitCores
	c := o.newCluster(eng, cfg)
	warm, meas := o.windows()
	if cutAt > 0 {
		head := c.SetMembers(0)[0]
		eng.At(cutAt, func() { c.PowerCutTarget(head) })
	}
	r := workload.RunBlock(eng, c, workload.BlockJob{
		Threads: 4, Pattern: workload.PatternRandom4K, Ordered: true,
	}, warm, meas)
	return r, c, eng
}

// txPerOp normalizes the window's initiator egress counters by the
// window's completed requests (same denominator as CompletionMsgsPerOp).
func txPerOp(br workload.BlockResult) (msgs, bytes float64) {
	if br.Stats.Completed == 0 {
		return 0, 0
	}
	return float64(br.Stats.TxMsgs) / float64(br.Stats.Completed),
		float64(br.Stats.TxBytes) / float64(br.Stats.Completed)
}

// ReplicationSweep is the "replication" experiment.
func ReplicationSweep(o Options) *Result {
	res := &Result{Name: "replication: replica sets with quorum completion, stall-free failover, background resync"}
	violations := 0

	var tput, cplOp metrics.Series
	tput.Label, cplOp.Label = "rio kiops", "cpl msgs/op"
	for _, r := range []int{1, 2, 3} {
		br, c, eng := runReplicationPoint(o, r, 0, 0)
		violations += orderViolations(c)
		tput.Add(float64(r), br.KIOPS())
		cplOp.Add(float64(r), br.Stats.CompletionMsgsPerOp())
		res.Metric(fmt.Sprintf("replication.rio.kiops.r%d", r), br.KIOPS())
		if r == 3 {
			res.Metric("replication.rio.completion_msgs_per_op.r3", br.Stats.CompletionMsgsPerOp())
			res.Metric("replication.rio.p99_us.r3", float64(br.Lat.P99())/1000)
			msgs, bytes := txPerOp(br)
			res.Metric("replication.rio.tx_msgs_per_op.r3", msgs)
			res.Metric("replication.rio.tx_bytes_per_op.r3", bytes)
		}
		eng.Shutdown()
	}
	res.Tables = append(res.Tables, metrics.Table(
		fmt.Sprintf("replica-factor sweep (%d fixed targets, 4 streams, 4 KB random ordered write, majority quorum)", replFleet),
		"replicas", tput, cplOp))

	// Failover phase: cut one member of a 3-way set in the middle of the
	// measurement window. Throughput must survive (no stream stalls at
	// majority quorum) and the blip is the worst latency of the window.
	warm, meas := o.windows()
	cutAt := warm + meas/2
	br, c, eng := runReplicationPoint(o, 3, cutAt, 1)
	violations += orderViolations(c)
	res.Metric("replication.rio.failover_kiops", br.KIOPS())
	res.Metric("replication.rio.failover_blip_us", br.MaxLatUS())
	backlog := c.ResyncBacklog(1)
	eng.Shutdown()

	// Background resync on a bounded run (the RunBlock drivers write
	// forever, so the resync phase uses its own finite workload): cut a
	// member mid-stream, finish the writes degraded, resync, and verify
	// the rejoined member converged byte-identically with a peer.
	tm, diverged := runResyncPhase(o, false, 1)
	res.Metric("replication.rio.resync_blocks", float64(tm.Replayed))
	res.Metric("replication.rio.resync_divergence", float64(diverged))
	violations += diverged

	// Relay fast path: the same 3-way fleet with the initiator pinned to
	// relayInitCores, direct fan-out vs target-to-target relay. Direct
	// posts R capsules per batch and reaps every member's completion
	// stream; the relay posts ONE and reaps quorum-aggregated CQEs —
	// at a saturated initiator that egress cut is throughput.
	var rel metrics.Series
	rel.Label = "constrained kiops"
	brD, cD, engD := runRelayPoint(o, false, 0)
	violations += orderViolations(cD)
	dMsgs, dBytes := txPerOp(brD)
	engD.Shutdown()
	brR, cR, engR := runRelayPoint(o, true, 0)
	violations += orderViolations(cR)
	rMsgs, rBytes := txPerOp(brR)
	relayed := cR.Target(cR.SetMembers(0)[0]).Stats().Relays
	engR.Shutdown()
	rel.Add(0, brD.KIOPS())
	rel.Add(1, brR.KIOPS())
	res.Metric("replication.rio.kiops.r3.direct", brD.KIOPS())
	res.Metric("replication.rio.kiops.r3.relay", brR.KIOPS())
	res.Metric("replication.rio.p99_us.r3.relay", float64(brR.Lat.P99())/1000)
	res.Metric("replication.rio.completion_msgs_per_op.r3.direct", brD.Stats.CompletionMsgsPerOp())
	res.Metric("replication.rio.completion_msgs_per_op.r3.relay", brR.Stats.CompletionMsgsPerOp())
	res.Metric("replication.rio.tx_msgs_per_op.r3.direct", dMsgs)
	res.Metric("replication.rio.tx_msgs_per_op.r3.relay", rMsgs)
	res.Metric("replication.rio.tx_bytes_per_op.r3.direct", dBytes)
	res.Metric("replication.rio.tx_bytes_per_op.r3.relay", rBytes)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"relay fast path (%d initiator cores): %.1f -> %.1f kiops (%.2fx), egress %.2f -> %.2f msgs/op, completions %.2f -> %.2f msgs/op, %d capsules relayed head->followers",
		relayInitCores, brD.KIOPS(), brR.KIOPS(), brR.KIOPS()/brD.KIOPS(),
		dMsgs, rMsgs, brD.Stats.CompletionMsgsPerOp(), brR.Stats.CompletionMsgsPerOp(), relayed))

	// Relay failover: power-cut the HEAD mid-measurement. The repair path
	// (exact-prefix re-post + survivor ack flush + degrade to direct
	// fan-out) must keep every stream flowing; the blip is gated next to
	// the direct-path member cut's.
	brF, cF, engF := runRelayPoint(o, true, cutAt)
	violations += orderViolations(cF)
	res.Metric("replication.rio.failover_kiops.relay", brF.KIOPS())
	res.Metric("replication.rio.failover_blip_us.relay", brF.MaxLatUS())
	engF.Shutdown()
	res.Notes = append(res.Notes, fmt.Sprintf(
		"relay head cut mid-measure: %.1f kiops flowing, worst blip %.1f µs",
		brF.KIOPS(), brF.MaxLatUS()))

	// Relay resync: head cut, bounded writes finish degraded via direct
	// fan-out, then the head rejoins and must converge byte-identically.
	tmR, divergedR := runResyncPhase(o, true, 0)
	res.Metric("replication.rio.resync_blocks.relay", float64(tmR.Replayed))
	res.Metric("replication.rio.resync_divergence.relay", float64(divergedR))
	violations += divergedR

	res.Tables = append(res.Tables, metrics.Table(
		fmt.Sprintf("relay fast path at %d initiator cores (x=0 direct fan-out, x=1 relay)", relayInitCores),
		"variant", rel))

	res.Metric("replication.rio.order_violations", float64(violations))
	res.Notes = append(res.Notes,
		fmt.Sprintf("failover: member cut mid-measure kept %.1f kiops flowing, worst blip %.1f µs, %d extents queued for resync",
			br.KIOPS(), br.MaxLatUS(), backlog),
		fmt.Sprintf("resync replayed %d blocks from a peer replica; %d blocks diverged afterwards (must be 0)", tm.Replayed, diverged),
		"R=1 runs the unreplicated code path; the redundancy tax is the r1→r3 throughput ratio at fixed hardware")
	return res
}

// runResyncPhase drives a bounded degraded window and measures the
// background resync: 4 streams write 150 groups each, member `victim`
// dies a third of the way in, the survivors finish at quorum, then the
// member resyncs from a peer and the phase reports the replay volume
// plus any post-resync divergence (which must be zero). With relay on,
// victim 0 is the set head — the relay hub itself.
func runResyncPhase(o Options, relay bool, victim int) (stack.RecoveryTiming, int) {
	eng := sim.New(o.seed())
	cfg := stack.DefaultConfig(stack.ModeRio, replTargets(3)...)
	cfg.Replicas = 3
	cfg.ReplRelay = relay
	cfg.Streams = 4
	cfg.QPs = 4
	c := o.newCluster(eng, cfg)
	in := c.Init(0)
	const groups = 150
	for s := 0; s < 4; s++ {
		s := s
		eng.Go(fmt.Sprintf("resync/app%d", s), func(p *sim.Proc) {
			for g := 0; g < groups; g++ {
				r := in.OrderedWrite(p, s, uint64(s*100000+g), 1, 0, nil, true, false, false)
				in.Wait(p, r)
			}
		})
	}
	eng.At(100*sim.Microsecond, func() { c.PowerCutTarget(victim) })
	eng.Run()
	var tm stack.RecoveryTiming
	eng.Go("resync/recover", func(p *sim.Proc) { _, tm = c.RecoverTarget(p, victim) })
	eng.Run()
	diverged := c.ReplicaDivergence()
	eng.Shutdown()
	return tm, diverged
}
