package bench

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// TCPTransport exercises §4.5's claim that Principle 2 (stream→connection
// affinity exploiting per-connection in-order delivery) applies to TCP
// fabrics too: it repeats the Fig. 10(b)-style sweep over NVMe/TCP and
// reports Rio's gap to orderless plus the in-order-submission holdbacks,
// which must stay at zero when affinity is on.
func TCPTransport(o Options) *Result {
	res := &Result{Name: "NVMe over TCP: Rio's design on a socket fabric (§4.5, Principle 2)"}
	var holdbacks int64
	series := sweep(labels(blockSystems), []int{1, 4, 8, 12}, func(i, th int) workload.BlockResult {
		sys := blockSystems[i]
		cfg := stack.DefaultConfig(sys.mode, oneOptane()...)
		cfg.Fabric = fabric.TCPConfig(cfg.QPs)
		cfg.Costs = stack.TCPCosts()
		return point(o, cfg, func(eng *sim.Engine, c *stack.Cluster, warm, meas sim.Time) workload.BlockResult {
			job := random4K(th)
			job.Ordered = sys.ordered
			r := workload.RunBlock(eng, c, job, warm, meas)
			if sys.mode == stack.ModeRio {
				holdbacks += c.Target(0).Stats().Holdbacks
			}
			return r
		})
	}, kiopsCol)[0]
	res.plot("throughput over NVMe/TCP (K ops/s)", "threads", series...)
	res.Notes = append(res.Notes,
		fmt.Sprintf("rio/orderless over TCP = %s; rio/linux = %s",
			ratio(2, seriesByLabel(series, "rio").Y, seriesByLabel(series, "orderless").Y),
			ratio(1, seriesByLabel(series, "rio").Y, seriesByLabel(series, "linux").Y)),
		fmt.Sprintf("in-order submission holdbacks with stream→connection affinity: %d "+
			"(near zero: the per-connection FIFO does the ordering; the gate absorbs "+
			"residual races between timer and inline plug flushes)", holdbacks))
	return res
}
